package validate

import (
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/cfa"
)

// checkFunction validates one function: signature coherence, block
// structure, block ordering, id availability, ϕ coherence, per-instruction
// typing and the simplified structured control-flow rules.
func (v *validator) checkFunction(fn *spirv.Function) error {
	m := v.m
	ret, params, ok := m.FunctionTypeInfo(fn.TypeID())
	if !ok {
		return errf("fn.type", "function %%%d has non-function type %%%d", fn.ID(), fn.TypeID())
	}
	if ret != fn.ReturnType() {
		return errf("fn.return-type", "function %%%d return type %%%d does not match type %%%d", fn.ID(), fn.ReturnType(), ret)
	}
	if len(params) != len(fn.Params) {
		return errf("fn.param-count", "function %%%d has %d parameters, type wants %d", fn.ID(), len(fn.Params), len(params))
	}
	for i, p := range fn.Params {
		if p.Type != params[i] {
			return errf("fn.param-type", "function %%%d parameter %d has type %%%d, want %%%d", fn.ID(), i, p.Type, params[i])
		}
	}
	if len(fn.Blocks) == 0 {
		return errf("fn.no-blocks", "function %%%d has no blocks", fn.ID())
	}
	for _, b := range fn.Blocks {
		if b.Term == nil {
			return errf("block.no-terminator", "block %%%d has no terminator", b.Label)
		}
		for _, ins := range b.Body {
			if ins.Op.IsTerminator() || ins.Op == spirv.OpPhi || ins.Op == spirv.OpSelectionMerge || ins.Op == spirv.OpLoopMerge {
				return errf("block.misplaced", "%s cannot appear in a block body", ins.Op)
			}
			if ins.Op.IsType() || ins.Op.IsConstant() {
				return errf("block.module-scope-op", "%s must be at module scope", ins.Op)
			}
		}
		for _, s := range b.Successors() {
			if fn.Block(s) == nil {
				return errf("block.bad-successor", "block %%%d branches to %%%d which is not a block of function %%%d", b.Label, s, fn.ID())
			}
		}
	}
	if len(fn.Entry().Phis) != 0 {
		return errf("block.entry-phi", "entry block %%%d has ϕ instructions", fn.Entry().Label)
	}
	info := cfa.Analyze(m, fn)
	if len(info.G.Preds(0)) != 0 {
		return errf("block.entry-pred", "entry block %%%d has predecessors", fn.Entry().Label)
	}
	if !info.Dom.RespectsBlockOrder() {
		return errf("block.order", "block order of function %%%d violates dominance ordering", fn.ID())
	}
	reach := info.G.Reachable()
	if err := v.checkPhis(fn, info, reach); err != nil {
		return err
	}
	if err := v.checkAvailability(fn, info, reach); err != nil {
		return err
	}
	if err := v.checkStructured(fn, info, reach); err != nil {
		return err
	}
	for _, b := range fn.Blocks {
		for _, ins := range b.Body {
			if err := v.checkInstructionTypes(fn, ins); err != nil {
				return err
			}
		}
		if err := v.checkTerminator(fn, b); err != nil {
			return err
		}
	}
	return nil
}

// checkPhis verifies each ϕ covers exactly the block's predecessors, with
// values of the ϕ's type that are available at the end of each predecessor.
func (v *validator) checkPhis(fn *spirv.Function, info *cfa.Info, reach []bool) error {
	g := info.G
	for bi, b := range fn.Blocks {
		preds := g.Preds(bi)
		for _, phi := range b.Phis {
			if len(phi.Operands)%2 != 0 {
				return errf("phi.pairs", "ϕ %%%d has odd operand count", phi.Result)
			}
			parents := make(map[spirv.ID]bool)
			for i := 0; i+1 < len(phi.Operands); i += 2 {
				val, parent := spirv.ID(phi.Operands[i]), spirv.ID(phi.Operands[i+1])
				if parents[parent] {
					return errf("phi.duplicate-parent", "ϕ %%%d lists parent %%%d twice", phi.Result, parent)
				}
				parents[parent] = true
				pi := g.Index(parent)
				isPred := false
				for _, p := range preds {
					if int(p) == pi {
						isPred = true
						break
					}
				}
				if !isPred {
					return errf("phi.non-pred", "ϕ %%%d parent %%%d is not a predecessor of %%%d", phi.Result, parent, b.Label)
				}
				if got := v.m.TypeOf(val); got != phi.Type {
					return errf("phi.value-type", "ϕ %%%d value %%%d has type %%%d, want %%%d", phi.Result, val, got, phi.Type)
				}
				// The value must be available at the end of the parent block.
				pb := fn.Blocks[pi]
				if reach[pi] && !info.AvailableAt(val, parent, len(pb.Phis)+len(pb.Body)) {
					return errf("phi.value-avail", "ϕ %%%d value %%%d is not available at end of parent %%%d", phi.Result, val, parent)
				}
			}
			if reach[bi] && len(parents) != len(preds) {
				return errf("phi.coverage", "ϕ %%%d covers %d parents, block %%%d has %d predecessors", phi.Result, len(parents), b.Label, len(preds))
			}
		}
	}
	return nil
}

// checkAvailability verifies every id use in reachable blocks respects SSA
// dominance (ϕ uses were checked separately).
func (v *validator) checkAvailability(fn *spirv.Function, info *cfa.Info, reach []bool) error {
	for bi, b := range fn.Blocks {
		if !reach[bi] {
			// Uses in unreachable blocks still need definitions to exist,
			// but dominance is vacuous there (SPIR-V shares this rule).
			var missing error
			check := func(ins *spirv.Instruction) {
				ins.Uses(func(id spirv.ID) {
					if missing == nil && v.def(id) == nil {
						missing = errf("ssa.undefined", "use of undefined id %%%d in unreachable block %%%d", id, b.Label)
					}
				})
			}
			b.Instructions(check)
			if missing != nil {
				return missing
			}
			continue
		}
		pos := len(b.Phis)
		var verr error
		checkUse := func(ins *spirv.Instruction, pos int) {
			ins.Uses(func(id spirv.ID) {
				if verr != nil {
					return
				}
				if v.def(id) == nil {
					verr = errf("ssa.undefined", "use of undefined id %%%d by %s", id, ins)
					return
				}
				// Types, constants, globals, functions, labels-as-branch-
				// targets and merge operands are module/structural refs.
				d := v.def(id)
				if d.Op.IsType() || d.Op.IsConstant() || d.Op == spirv.OpLabel || d.Op == spirv.OpUndef ||
					d.Op == spirv.OpFunction || info.ModuleScope(id) {
					return
				}
				if !info.AvailableAt(id, b.Label, pos) {
					verr = errf("ssa.dominance", "id %%%d is not available at its use by %s in block %%%d", id, ins, b.Label)
				}
			})
		}
		for _, ins := range b.Body {
			checkUse(ins, pos)
			pos++
		}
		if b.Merge != nil {
			checkUse(b.Merge, pos)
		}
		checkUse(b.Term, pos)
		if verr != nil {
			return verr
		}
	}
	return nil
}

// checkStructured enforces the simplified structured control-flow rules of
// this subset:
//   - merge and continue targets of OpLoopMerge/OpSelectionMerge must be
//     blocks of the same function;
//   - a block ending in OpBranchConditional or OpSwitch must either carry a
//     merge instruction, or target (as a structured exit) the merge or
//     continue block of some loop header that dominates it.
func (v *validator) checkStructured(fn *spirv.Function, info *cfa.Info, reach []bool) error {
	loopExits := make(map[int][]spirv.ID) // loop header index -> {merge, continue}
	for bi, b := range fn.Blocks {
		if b.Merge == nil {
			continue
		}
		mb := spirv.ID(b.Merge.Operands[0])
		if fn.Block(mb) == nil {
			return errf("struct.merge-target", "merge target %%%d of block %%%d is not a block", mb, b.Label)
		}
		if b.Merge.Op == spirv.OpLoopMerge {
			cb := spirv.ID(b.Merge.Operands[1])
			if fn.Block(cb) == nil {
				return errf("struct.continue-target", "continue target %%%d of block %%%d is not a block", cb, b.Label)
			}
			loopExits[bi] = []spirv.ID{mb, cb}
		}
	}
	for bi, b := range fn.Blocks {
		if !reach[bi] {
			continue
		}
		op := b.Term.Op
		if op != spirv.OpBranchConditional && op != spirv.OpSwitch {
			continue
		}
		if b.Merge != nil {
			continue
		}
		// Permitted if a successor is a structured exit of a dominating loop.
		ok := false
		for header, exits := range loopExits {
			if !info.Dom.Dominates(header, bi) {
				continue
			}
			for _, s := range b.Successors() {
				for _, e := range exits {
					if s == e {
						ok = true
					}
				}
			}
		}
		if !ok {
			return errf("struct.selection-merge", "block %%%d has a conditional terminator but no merge instruction", b.Label)
		}
	}
	return nil
}

// checkTerminator validates terminator typing.
func (v *validator) checkTerminator(fn *spirv.Function, b *spirv.Block) error {
	t := b.Term
	switch t.Op {
	case spirv.OpBranchConditional:
		cond := t.IDOperand(0)
		if !v.m.IsBoolType(v.m.TypeOf(cond)) {
			return errf("term.cond-type", "OpBranchConditional in %%%d has non-bool condition %%%d", b.Label, cond)
		}
	case spirv.OpSwitch:
		sel := t.IDOperand(0)
		if !v.m.IsIntType(v.m.TypeOf(sel)) {
			return errf("term.switch-type", "OpSwitch in %%%d has non-integer selector %%%d", b.Label, sel)
		}
	case spirv.OpReturn:
		if v.m.TypeOp(fn.ReturnType()) != spirv.OpTypeVoid {
			return errf("term.return-void", "OpReturn in non-void function %%%d", fn.ID())
		}
	case spirv.OpReturnValue:
		got := v.m.TypeOf(t.IDOperand(0))
		if got != fn.ReturnType() {
			return errf("term.return-type", "OpReturnValue in %%%d returns %%%d, function wants %%%d", b.Label, got, fn.ReturnType())
		}
	}
	return nil
}
