package opt

import (
	"slices"

	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/cfa"
)

// EliminateDeadBlocks removes statically unreachable blocks and prunes ϕ
// edges that referenced them.
func EliminateDeadBlocks() Pass {
	return Pass{Name: "eliminate-dead-blocks", Run: func(m *spirv.Module) (bool, error) {
		changed := false
		for _, fn := range m.Functions {
			reach := cfa.Build(fn).Reachable()
			if !slices.Contains(reach, false) {
				continue
			}
			removed := make(map[spirv.ID]bool)
			kept := fn.Blocks[:0]
			for i, b := range fn.Blocks {
				if reach[i] {
					kept = append(kept, b)
				} else {
					removed[b.Label] = true
				}
			}
			fn.Blocks = kept
			for _, b := range fn.Blocks {
				for _, phi := range b.Phis {
					ops := phi.Operands[:0]
					for i := 0; i+1 < len(phi.Operands); i += 2 {
						if !removed[spirv.ID(phi.Operands[i+1])] {
							ops = append(ops, phi.Operands[i], phi.Operands[i+1])
						}
					}
					phi.Operands = ops
				}
			}
			changed = true
		}
		return changed, nil
	}}
}

// DCE removes side-effect-free instructions whose results are unused,
// iterating to a fixpoint, and drops debug names and decorations that refer
// to ids that no longer exist.
func DCE() Pass {
	return Pass{Name: "dce", Run: func(m *spirv.Module) (bool, error) {
		// One id-indexed table serves the whole run: use counts during the
		// fixpoint, then existence marks for the debug-info filter. Ids past
		// the table (at or above the bound, which only an invalid module
		// has) count as used and as existing, so they stay.
		tab := make([]int32, min(int64(m.Bound), cfa.MaxTable))
		mark := func(id spirv.ID) {
			if int(id) < len(tab) {
				tab[id]++
			}
		}
		marked := func(id spirv.ID) bool { return int(id) >= len(tab) || tab[id] != 0 }
		changedAny := false
		for {
			clear(tab)
			m.ForEachInstruction(func(ins *spirv.Instruction) {
				switch ins.Op {
				case spirv.OpName, spirv.OpMemberName, spirv.OpDecorate, spirv.OpMemberDecorate:
					return // debug info does not keep values alive
				}
				ins.Uses(mark)
			})
			changed := false
			for _, fn := range m.Functions {
				for _, b := range fn.Blocks {
					kept := b.Body[:0]
					for _, ins := range b.Body {
						dead := ins.Result != 0 && !marked(ins.Result) &&
							!ins.Op.HasSideEffects() && ins.Op != spirv.OpVariable
						if dead {
							changed = true
							continue
						}
						kept = append(kept, ins)
					}
					b.Body = kept
					// ϕs with unused results are removable too.
					keptPhis := b.Phis[:0]
					for _, phi := range b.Phis {
						if !marked(phi.Result) {
							changed = true
							continue
						}
						keptPhis = append(keptPhis, phi)
					}
					b.Phis = keptPhis
				}
			}
			changedAny = changedAny || changed
			if !changed {
				break
			}
		}
		if changedAny {
			// Drop names/decorations for ids that no longer exist.
			clear(tab)
			m.ForEachInstruction(func(ins *spirv.Instruction) {
				if ins.Result != 0 {
					mark(ins.Result)
				}
			})
			for _, fn := range m.Functions {
				for _, b := range fn.Blocks {
					mark(b.Label)
				}
			}
			filter := func(list []*spirv.Instruction) []*spirv.Instruction {
				kept := list[:0]
				for _, ins := range list {
					if marked(spirv.ID(ins.Operands[0])) {
						kept = append(kept, ins)
					}
				}
				return kept
			}
			m.Names = filter(m.Names)
			m.Decorations = filter(m.Decorations)
		}
		return changedAny, nil
	}}
}

// cseKey builds a structural key for a pure instruction.
func cseKey(ins *spirv.Instruction) (string, bool) {
	switch ins.Op {
	case spirv.OpLoad, spirv.OpVariable, spirv.OpFunctionCall, spirv.OpPhi, spirv.OpCopyObject:
		return "", false
	}
	if ins.Result == 0 || ins.Op.HasSideEffects() {
		return "", false
	}
	key := make([]byte, 0, 8+4*len(ins.Operands))
	key = append(key, byte(ins.Op), byte(ins.Op>>8), byte(ins.Type), byte(ins.Type>>8), byte(ins.Type>>16), byte(ins.Type>>24))
	for _, w := range ins.Operands {
		key = append(key, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return string(key), true
}

// CSELocal replaces repeated identical pure computations within a block by
// copies of the first occurrence.
func CSELocal() Pass {
	return Pass{Name: "cse-local", Run: func(m *spirv.Module) (bool, error) {
		changed := false
		for _, fn := range m.Functions {
			for _, b := range fn.Blocks {
				seen := make(map[string]spirv.ID)
				for _, ins := range b.Body {
					key, ok := cseKey(ins)
					if !ok {
						continue
					}
					if first, dup := seen[key]; dup {
						*ins = *spirv.NewInstr(spirv.OpCopyObject, ins.Type, ins.Result, uint32(first))
						changed = true
						continue
					}
					seen[key] = ins.Result
				}
			}
		}
		return changed, nil
	}}
}

// BlockLayout reorders each function's blocks into reverse post-order
// (entry first), appending unreachable blocks in their original order. The
// result always satisfies the dominance ordering rule.
func BlockLayout() Pass {
	return Pass{Name: "block-layout", Run: func(m *spirv.Module) (bool, error) {
		changed := false
		for _, fn := range m.Functions {
			// Reachable blocks are in RPO exactly when their indices, taken
			// in RPO, increase.
			rpo := cfa.Build(fn).ReversePostOrder()
			if slices.IsSorted(rpo) {
				continue
			}
			reachable := make([]bool, len(fn.Blocks))
			blocks := make([]*spirv.Block, 0, len(fn.Blocks))
			for _, i := range rpo {
				reachable[i] = true
				blocks = append(blocks, fn.Blocks[i])
			}
			for i, b := range fn.Blocks {
				if !reachable[i] {
					blocks = append(blocks, b)
				}
			}
			fn.Blocks = blocks
			changed = true
		}
		return changed, nil
	}}
}

// MergeBlocks merges a block into its unconditional successor when the
// successor has exactly one predecessor and no ϕs, and neither block heads a
// structured construct or serves as a merge/continue target. This undoes
// gratuitous SplitBlocks, as spirv-opt's block-merge pass does.
func MergeBlocks() Pass {
	return Pass{Name: "merge-blocks", Run: func(m *spirv.Module) (bool, error) {
		changed := false
		for _, fn := range m.Functions {
			// Collect structural targets that must remain distinct blocks.
			reserved := map[spirv.ID]bool{}
			for _, b := range fn.Blocks {
				if b.Merge != nil {
					reserved[spirv.ID(b.Merge.Operands[0])] = true
					if b.Merge.Op == spirv.OpLoopMerge {
						reserved[spirv.ID(b.Merge.Operands[1])] = true
					}
				}
			}
			for {
				g := cfa.Build(fn)
				merged := false
				for _, b := range fn.Blocks {
					if b.Term.Op != spirv.OpBranch || b.Merge != nil {
						continue
					}
					succ := b.Term.IDOperand(0)
					idx := g.Index(succ)
					if idx < 0 || fn.Blocks[idx] == b || len(g.Preds(idx)) != 1 || len(fn.Blocks[idx].Phis) != 0 || reserved[succ] {
						continue
					}
					// Splice successor into b and drop it.
					sb := fn.Blocks[idx]
					b.Body = append(b.Body, sb.Body...)
					b.Merge = sb.Merge
					b.Term = sb.Term
					fn.Blocks = append(fn.Blocks[:idx], fn.Blocks[idx+1:]...)
					// ϕs in b's new successors referred to the dropped label.
					for _, s := range b.Successors() {
						if nb := fn.Block(s); nb != nil {
							for _, phi := range nb.Phis {
								for i := 1; i < len(phi.Operands); i += 2 {
									if spirv.ID(phi.Operands[i]) == succ {
										phi.Operands[i] = uint32(b.Label)
									}
								}
							}
						}
					}
					merged = true
					changed = true
					break
				}
				if !merged {
					break
				}
			}
		}
		return changed, nil
	}}
}

// EliminateRedundantPhis replaces ϕs whose incoming values are all identical
// (or the ϕ itself, for self-loops) with a copy of that value, as
// spirv-opt's ssa-rewriter cleanup does.
func EliminateRedundantPhis() Pass {
	return Pass{Name: "eliminate-redundant-phis", Run: func(m *spirv.Module) (bool, error) {
		changed := false
		for _, fn := range m.Functions {
			// One analysis serves the whole function: rewriting a ϕ into a
			// body copy moves a definition within its block, which changes
			// no cross-block answer, and a same-block definition is never
			// available at position 0 either way.
			var info *cfa.Info
			for _, b := range fn.Blocks {
				keptPhis := b.Phis[:0]
				for _, phi := range b.Phis {
					var unique spirv.ID
					redundant := true
					for i := 0; i+1 < len(phi.Operands); i += 2 {
						v := spirv.ID(phi.Operands[i])
						if v == phi.Result {
							continue // self-reference does not count
						}
						if unique == 0 {
							unique = v
						} else if unique != v {
							redundant = false
							break
						}
					}
					if !redundant || unique == 0 {
						keptPhis = append(keptPhis, phi)
						continue
					}
					// A value that flows in from every predecessor dominates
					// each predecessor's end; for it to be usable where the ϕ
					// was, it must dominate this block — true when it is not
					// defined in one of the predecessors on a back edge.
					// Conservatively require it to be available at position 0
					// of this block.
					if info == nil {
						info = cfa.Analyze(m, fn)
					}
					if !info.AvailableAt(unique, b.Label, 0) {
						keptPhis = append(keptPhis, phi)
						continue
					}
					b.Body = append([]*spirv.Instruction{
						spirv.NewInstr(spirv.OpCopyObject, phi.Type, phi.Result, uint32(unique)),
					}, b.Body...)
					changed = true
				}
				b.Phis = keptPhis
			}
		}
		return changed, nil
	}}
}
