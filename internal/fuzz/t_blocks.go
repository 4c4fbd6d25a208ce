package fuzz

import (
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/cfa"
)

// Control-flow transformations: prior work has shown these to be effective
// at uncovering bugs (Section 3.2).

// Transformation type identifiers for block transformations.
const (
	TypeSplitBlock            = "SplitBlock"
	TypeAddDeadBlock          = "AddDeadBlock"
	TypeReplaceBranchWithKill = "ReplaceBranchWithKill"
	TypeMoveBlockDown         = "MoveBlockDown"
	TypeWrapRegionInSelection = "WrapRegionInSelection"
)

// retargetPhis rewrites ϕ parents from old to new in block s.
func retargetPhis(s *spirv.Block, old, new spirv.ID) {
	for _, phi := range s.Phis {
		for i := 1; i < len(phi.Operands); i += 2 {
			if spirv.ID(phi.Operands[i]) == old {
				phi.Operands[i] = uint32(new)
			}
		}
	}
}

// dropPhiParent removes (value, parent) pairs with the given parent from
// every ϕ of block s.
func dropPhiParent(s *spirv.Block, parent spirv.ID) {
	for _, phi := range s.Phis {
		ops := phi.Operands[:0]
		for i := 0; i+1 < len(phi.Operands); i += 2 {
			if spirv.ID(phi.Operands[i+1]) != parent {
				ops = append(ops, phi.Operands[i], phi.Operands[i+1])
			}
		}
		phi.Operands = ops
	}
}

// extendPhisForNewPred gives every ϕ of block s an incoming value for the
// new predecessor newPred, copying the value s receives from donorPred
// (which must dominate newPred for availability to hold).
func extendPhisForNewPred(s *spirv.Block, donorPred, newPred spirv.ID) {
	for _, phi := range s.Phis {
		var val uint32
		for i := 0; i+1 < len(phi.Operands); i += 2 {
			if spirv.ID(phi.Operands[i+1]) == donorPred {
				val = phi.Operands[i]
				break
			}
		}
		phi.Operands = append(phi.Operands, val, uint32(newPred))
	}
}

// SplitBlock splits the block containing the anchor instruction so that the
// anchor becomes the first instruction of a fresh block. Identifying the
// split point by instruction id — not by (block, offset) — follows the
// independence principle of Section 2.3: two splits of what was originally
// one block reduce independently.
type SplitBlock struct {
	Anchor spirv.ID `json:"anchor"` // body instruction that will start the new block
	Fresh  spirv.ID `json:"fresh"`  // label of the new block
}

// Type implements Transformation.
func (t *SplitBlock) Type() string { return TypeSplitBlock }

// Precondition: the anchor is a body instruction of a block that heads no
// structured construct, and Fresh is unused.
func (t *SplitBlock) Precondition(c *Context) bool {
	if !c.IsFreshID(t.Fresh) {
		return false
	}
	loc := c.FindInstruction(t.Anchor)
	return loc != nil && loc.Index >= 0 && loc.Block.Merge == nil
}

// Apply performs the split, retargeting successor ϕs to the new block.
func (t *SplitBlock) Apply(c *Context) {
	c.ClaimID(t.Fresh)
	loc := c.FindInstruction(t.Anchor)
	b := loc.Block
	nb := &spirv.Block{
		Label: t.Fresh,
		Body:  append([]*spirv.Instruction(nil), b.Body[loc.Index:]...),
		Term:  b.Term,
	}
	for _, s := range b.Successors() {
		if _, sb := c.FindBlock(s); sb != nil {
			retargetPhis(sb, b.Label, t.Fresh)
		}
	}
	b.Body = b.Body[:loc.Index:loc.Index]
	b.Term = spirv.NewInstr(spirv.OpBranch, 0, 0, uint32(t.Fresh))
	InsertBlockAfter(loc.Fn, b, nb)
	if c.Facts.IsDeadBlock(b.Label) {
		c.Facts.MarkDeadBlock(t.Fresh)
	}
}

// AddDeadBlock turns an unconditional edge b→s into a conditional branch on
// a true constant, with the false target a fresh block that just branches to
// s. The fresh block is dynamically unreachable; the fact DeadBlock(Fresh)
// is recorded. Following the simplicity principle of Section 2.3 the
// transformation does not manufacture its own constant: it requires an
// existing OpConstantTrue (added by a supporting transformation), so the
// reducer can keep the constant but drop the block, or vice versa.
type AddDeadBlock struct {
	Fresh     spirv.ID `json:"fresh"`
	Block     spirv.ID `json:"block"`
	TrueConst spirv.ID `json:"trueConst"`
}

// Type implements Transformation.
func (t *AddDeadBlock) Type() string { return TypeAddDeadBlock }

// Precondition: Block ends in OpBranch and heads no construct, TrueConst is
// an OpConstantTrue, and Fresh is unused.
func (t *AddDeadBlock) Precondition(c *Context) bool {
	if !c.IsFreshID(t.Fresh) {
		return false
	}
	_, b := c.FindBlock(t.Block)
	if b == nil || b.Merge != nil || b.Term.Op != spirv.OpBranch {
		return false
	}
	def := c.Mod.Def(t.TrueConst)
	return def != nil && def.Op == spirv.OpConstantTrue
}

// Apply inserts the dead block.
func (t *AddDeadBlock) Apply(c *Context) {
	c.ClaimID(t.Fresh)
	fn, b := c.FindBlock(t.Block)
	succ := b.Term.IDOperand(0)
	nb := &spirv.Block{Label: t.Fresh, Term: spirv.NewInstr(spirv.OpBranch, 0, 0, uint32(succ))}
	b.Merge = spirv.NewInstr(spirv.OpSelectionMerge, 0, 0, uint32(succ), spirv.SelectionControlNone)
	b.Term = spirv.NewInstr(spirv.OpBranchConditional, 0, 0, uint32(t.TrueConst), uint32(succ), uint32(t.Fresh))
	InsertBlockAfter(fn, b, nb)
	if _, sb := c.FindBlock(succ); sb != nil {
		extendPhisForNewPred(sb, b.Label, t.Fresh)
	}
	c.Facts.MarkDeadBlock(t.Fresh)
}

// ReplaceBranchWithKill changes a dead block's unconditional branch into
// OpKill, which terminates the fragment. Because the block never executes,
// semantics are preserved, while the static control-flow graph changes
// substantially (Section 3.2).
type ReplaceBranchWithKill struct {
	Block spirv.ID `json:"block"`
}

// Type implements Transformation.
func (t *ReplaceBranchWithKill) Type() string { return TypeReplaceBranchWithKill }

// Precondition: the fact DeadBlock(Block) holds and the block ends in
// OpBranch with no merge instruction.
func (t *ReplaceBranchWithKill) Precondition(c *Context) bool {
	if !c.Facts.IsDeadBlock(t.Block) {
		return false
	}
	_, b := c.FindBlock(t.Block)
	return b != nil && b.Merge == nil && b.Term.Op == spirv.OpBranch
}

// Apply replaces the branch and prunes the stale ϕ edges of the former
// successor.
func (t *ReplaceBranchWithKill) Apply(c *Context) {
	_, b := c.FindBlock(t.Block)
	succ := b.Term.IDOperand(0)
	b.Term = spirv.NewInstr(spirv.OpKill, 0, 0)
	if _, sb := c.FindBlock(succ); sb != nil {
		dropPhiParent(sb, b.Label)
	}
}

// MoveBlockDown swaps a block with its syntactic successor when doing so
// still respects the SPIR-V rule that a block appears after its immediate
// dominator. A PermuteBlocks fuzzer pass applies many MoveBlockDowns to
// shuffle block order (the simplicity principle: a permutation reduces to
// the minimal set of swaps that still triggers the bug). This transformation
// triggered the Pixel 5 driver bug of Figure 8b.
type MoveBlockDown struct {
	Block spirv.ID `json:"block"`
}

// Type implements Transformation.
func (t *MoveBlockDown) Type() string { return TypeMoveBlockDown }

// Precondition: Block is neither the entry nor the last block of its
// function, and the block after it is not immediately dominated by it.
func (t *MoveBlockDown) Precondition(c *Context) bool {
	fn, b := c.FindBlock(t.Block)
	if fn == nil {
		return false
	}
	i := fn.BlockIndex(b.Label)
	if i < 1 || i+1 >= len(fn.Blocks) {
		return false
	}
	return cfa.Dominators(cfa.Build(fn)).Idom(i+1) != i
}

// Apply swaps the blocks.
func (t *MoveBlockDown) Apply(c *Context) {
	fn, b := c.FindBlock(t.Block)
	i := fn.BlockIndex(b.Label)
	fn.Blocks[i], fn.Blocks[i+1] = fn.Blocks[i+1], fn.Blocks[i]
}

// WrapRegionInSelection wraps a block's body in one branch of a conditional
// on a constant: the then-branch of a true conditional, or the else-branch
// of a false conditional. Both forms share this single transformation type
// — the "common types for related transformations" principle of Section 3.3
// — so deduplication treats test cases using either form as similar.
type WrapRegionInSelection struct {
	Block      spirv.ID `json:"block"`
	FreshInner spirv.ID `json:"freshInner"`
	FreshMerge spirv.ID `json:"freshMerge"`
	CondConst  spirv.ID `json:"condConst"` // OpConstantTrue or OpConstantFalse
}

// Type implements Transformation.
func (t *WrapRegionInSelection) Type() string { return TypeWrapRegionInSelection }

// Precondition: Block ends in OpBranch with no merge instruction, the fresh
// ids are unused and distinct, CondConst is a boolean constant, and no id
// defined in the block's body is used outside it. The last condition keeps
// the rewrite SSA-sound: the wrapped body no longer dominates the merge
// block (the never-taken skip edge joins there), so its definitions must not
// escape.
func (t *WrapRegionInSelection) Precondition(c *Context) bool {
	if !c.FreshAll(t.FreshInner, t.FreshMerge) {
		return false
	}
	fn, b := c.FindBlock(t.Block)
	if b == nil || b.Merge != nil || b.Term.Op != spirv.OpBranch {
		return false
	}
	if _, isBool := c.Mod.ConstantBoolValue(t.CondConst); !isBool {
		return false
	}
	defined := make(map[spirv.ID]bool)
	for _, ins := range b.Body {
		if ins.Result != 0 {
			defined[ins.Result] = true
		}
	}
	if len(defined) == 0 {
		return true
	}
	escapes := false
	for _, ob := range fn.Blocks {
		check := func(ins *spirv.Instruction) {
			if escapes {
				return
			}
			ins.Uses(func(id spirv.ID) {
				if defined[id] {
					escapes = true
				}
			})
		}
		if ob == b {
			// Uses within the body itself are fine; the (unconditional)
			// terminator and ϕs of b cannot use body values.
			for _, p := range ob.Phis {
				check(p)
			}
			continue
		}
		ob.Instructions(check)
		if escapes {
			return false
		}
	}
	return !escapes
}

// Apply restructures b into header → inner → merge → original successor.
func (t *WrapRegionInSelection) Apply(c *Context) {
	c.ClaimID(t.FreshInner)
	c.ClaimID(t.FreshMerge)
	fn, b := c.FindBlock(t.Block)
	succ := b.Term.IDOperand(0)
	inner := &spirv.Block{
		Label: t.FreshInner,
		Body:  b.Body,
		Term:  spirv.NewInstr(spirv.OpBranch, 0, 0, uint32(t.FreshMerge)),
	}
	mergeBlk := &spirv.Block{Label: t.FreshMerge, Term: b.Term}
	b.Body = nil
	b.Merge = spirv.NewInstr(spirv.OpSelectionMerge, 0, 0, uint32(t.FreshMerge), spirv.SelectionControlNone)
	condVal, _ := c.Mod.ConstantBoolValue(t.CondConst)
	if condVal {
		// then-form: if (true) { body }
		b.Term = spirv.NewInstr(spirv.OpBranchConditional, 0, 0, uint32(t.CondConst), uint32(t.FreshInner), uint32(t.FreshMerge))
	} else {
		// else-form: if (false) {} else { body }
		b.Term = spirv.NewInstr(spirv.OpBranchConditional, 0, 0, uint32(t.CondConst), uint32(t.FreshMerge), uint32(t.FreshInner))
	}
	InsertBlockAfter(fn, b, inner)
	InsertBlockAfter(fn, inner, mergeBlk)
	if _, sb := c.FindBlock(succ); sb != nil {
		retargetPhis(sb, b.Label, t.FreshMerge)
	}
	if c.Facts.IsDeadBlock(b.Label) {
		c.Facts.MarkDeadBlock(t.FreshInner)
		c.Facts.MarkDeadBlock(t.FreshMerge)
	}
}

func init() {
	register(TypeSplitBlock, func() Transformation { return &SplitBlock{} })
	register(TypeAddDeadBlock, func() Transformation { return &AddDeadBlock{} })
	register(TypeReplaceBranchWithKill, func() Transformation { return &ReplaceBranchWithKill{} })
	register(TypeMoveBlockDown, func() Transformation { return &MoveBlockDown{} })
	register(TypeWrapRegionInSelection, func() Transformation { return &WrapRegionInSelection{} })
}
