package interp

import (
	"math/bits"
	"sync"
)

// This file is the lane VM: warp-style execution of a compiled Program over
// groups of up to MaxLanes pixels at once. One decoded instruction is
// dispatched per group, amortizing dispatch, block bookkeeping, ϕ staging and
// step accounting across the lanes the way a GPU warp does, while the actual
// scalar fast paths run as tight loops over contiguous memory.
//
// Layout is struct-of-arrays: a frame for a function with S slots is a
// []Value of length S*G where slot s of lane k lives at fr[s*G+k] — the G
// lanes of a slot are adjacent, so the per-instruction inner loop walks
// consecutive memory.
//
// Control flow is uniform per group. Branches, switch jump tables and ϕ
// parallel moves execute once while every active lane agrees on the edge.
// When lanes disagree — or a lane hits anything the uniform path cannot
// express (a fault instruction, an unset-slot read with no fallback, a
// step-limit or call-depth overrun, an operand shape the shared semantic
// helpers reject) — the affected lanes are retired: their bits leave the
// active mask and their pixels are re-rendered from scratch on the scalar
// VM, which remains the bitwise reference. The lane VM therefore never
// constructs a fault message of its own; every fault a render reports was
// produced by the scalar machine, so messages are identical by construction.
//
// Like RenderParallel's band split, lane mode gives each lane its own global
// cells (G interleaved pixel streams instead of one): modules whose output
// is independent of cross-pixel global-state history — the same property the
// existing parallel renderer relies on — render byte-identically.

// laneVM executes a compiled Program over a group of G pixel lanes.
type laneVM struct {
	p     *Program
	G     int
	fixed [][]Value   // per lane: constants + that lane's global pointers
	cells [][]Cell    // per lane: global cells
	arena [][][]Value // per function: stack of reusable SoA frames (nslots*G)
	valArena
	scratch []Value // ϕ parallel-move staging, moves-major: [move*G+lane]
	argbuf  []Value // call-argument staging, args-major: [arg*G+lane]
	retbuf  []Value // per-lane return values of the innermost call
	steps   int     // shared: the uniform path costs every lane the same steps
	depth   int
	bailMin int // bail to scalar when a group's live mask drops below this
	stats   LaneStats
}

// newLaneVM builds a lane machine with G lanes. All staging buffers are
// sized from the Program's compile-time maxima, so the uniform path
// allocates nothing per pixel or per group.
func (p *Program) newLaneVM(in Inputs, G int) *laneVM {
	lv := &laneVM{p: p, G: G}
	lv.cells = make([][]Cell, G)
	lv.fixed = make([][]Value, G)
	for k := 0; k < G; k++ {
		lv.cells[k], lv.fixed[k] = p.newState(in)
	}
	lv.arena = make([][][]Value, len(p.funcs))
	lv.scratch = make([]Value, p.maxPhiMoves*G)
	lv.argbuf = make([]Value, p.maxCallArgs*G)
	lv.retbuf = make([]Value, G)
	if G >= 2 {
		// A warp whittled down to one live lane pays full uniform-path
		// bookkeeping for zero amortization — strictly slower than the
		// scalar VM. Retire such stragglers early (exec's bail-out); their
		// pixels re-render on the scalar machine, so only time moves.
		lv.bailMin = 2
	}
	return lv
}

// acquire returns a cleared SoA frame for function f.
func (lv *laneVM) acquire(f int32) []Value {
	pool := lv.arena[f]
	if n := len(pool); n > 0 {
		fr := pool[n-1]
		lv.arena[f] = pool[:n-1]
		clear(fr)
		return fr
	}
	return make([]Value, lv.p.funcs[f].nslots*lv.G)
}

func (lv *laneVM) release(f int32, fr []Value) {
	lv.arena[f] = append(lv.arena[f], fr)
}

// setCoord updates lane k's coordinate input cell in place when possible,
// mirroring vmachine.setCoord.
func (lv *laneVM) setCoord(k int, cx, cy float32) {
	v := &lv.cells[k][lv.p.coord].V
	if v.Kind == KindComposite && len(v.Elems) == 2 &&
		v.Elems[0].Kind == KindFloat && v.Elems[1].Kind == KindFloat {
		v.Elems[0].F = cx
		v.Elems[1].F = cy
		return
	}
	*v = Vec2(cx, cy)
}

// resetColor writes the output zero into lane k's color cell.
func (lv *laneVM) resetColor(k int) {
	resetValue(&lv.cells[k][lv.p.color].V, lv.p.colorZero)
}

// readLane resolves an operand ref for lane k. ok=false means the read
// faults on the scalar machine; the caller retires the lane.
func (lv *laneVM) readLane(pf *pfunc, fr []Value, ref int32, k int) (Value, bool) {
	if ref >= 0 {
		if v := fr[int(ref)*lv.G+k]; v.Kind != KindUnset {
			return v, true
		}
		if fb := pf.fallback[ref]; fb != refNone {
			return lv.fixed[k][-fb-1], true
		}
		return Value{}, false
	}
	return lv.fixed[k][-ref-1], true
}

// laneOperand is readLane returning a pointer instead of a copy, with the
// slot offset and fallback hoisted by the caller (off = ref*G, fb =
// pf.fallback[ref] when ref >= 0; both ignored otherwise). nil means the
// read faults on the scalar machine. Small enough to inline into the hot
// loops, where the 48-byte Value copy readLane returns would dominate.
func (lv *laneVM) laneOperand(fr []Value, ref int32, off int, fb int32, k int) *Value {
	if ref < 0 {
		return &lv.fixed[k][-ref-1]
	}
	if v := &fr[off+k]; v.Kind != KindUnset {
		return v
	}
	if fb != refNone {
		return &lv.fixed[k][-fb-1]
	}
	return nil
}

// storeLane copies *v into slot *o. Scalar values land as field writes that
// skip the GC write barrier; this is sound only when the slot's Elems/Ptr
// are nil, which the dynamic check guarantees (a stale pointer is never
// left behind, because there is no pointer to begin with).
func storeLane(o, v *Value) {
	if v.Kind < KindComposite && o.Elems == nil && o.Ptr == nil {
		o.Kind, o.B, o.Bits, o.F = v.Kind, v.B, v.Bits, v.F
		return
	}
	*o = *v
}

// call runs funcs[fidx] across the lanes in mask. args is SoA
// ([arg*G+lane], valid only for mask lanes); per-lane return values land in
// ret. The three result masks partition mask: lanes that completed normally,
// lanes retired to the scalar VM, and lanes discarded by OpKill. Faults the
// scalar machine raises before entering the body (depth, arity, empty body)
// are uniform, so they retire the whole group.
func (lv *laneVM) call(fidx int32, args []Value, nargs int, mask uint32, ret []Value) (alive, retired, killed uint32) {
	pf := &lv.p.funcs[fidx]
	lv.depth++
	defer func() { lv.depth-- }()
	if lv.depth > maxCallDepth || nargs != pf.nparams || pf.noBlocks != nil {
		return 0, mask, 0
	}
	fr := lv.acquire(fidx)
	G := lv.G
	for i, s := range pf.paramSlots {
		copy(fr[int(s)*G:(int(s)+1)*G], args[i*G:(i+1)*G])
	}
	alive, retired, killed = lv.exec(pf, fr, mask, ret)
	lv.release(fidx, fr)
	return alive, retired, killed
}

// exec interprets one activation of pf for every lane in mask at once.
func (lv *laneVM) exec(pf *pfunc, fr []Value, mask uint32, ret []Value) (alive, retired, killed uint32) {
	G := lv.G
	act := mask
	bi := int32(0)
	first := true
	var moves []pmove
	direct := false
	for {
		b := &pf.blocks[bi]
		lv.steps++
		if lv.steps > MaxSteps {
			return 0, retired | act, killed
		}
		if first {
			first = false
			if pf.entryPhiFault != nil {
				return 0, retired | act, killed
			}
		} else if len(moves) > 0 {
			if direct {
				// The plan proved no destination doubles as a source, so
				// sequential copies observe the same values the staged
				// parallel moves would, at half the Value traffic. A lane
				// whose read faults retires; its half-moved frame is
				// irrelevant, the pixel re-renders from scratch.
				for i := range moves {
					mv := &moves[i]
					d := int(mv.dst) * G
					dvm := fr[d : d+G : d+G]
					src := mv.src
					if src >= 0 {
						sOff := int(src) * G
						sv := fr[sOff : sOff+G : sOff+G][:len(dvm)]
						fb := pf.fallback[src]
						for k := range dvm {
							if act>>k&1 == 0 {
								continue
							}
							v := &sv[k]
							if v.Kind == KindUnset {
								if v = lv.laneOperand(fr, src, sOff, fb, k); v == nil {
									act &^= 1 << k
									retired |= 1 << k
									continue
								}
							}
							storeLane(&dvm[k], v)
						}
					} else {
						for k := range dvm {
							if act>>k&1 == 0 {
								continue
							}
							storeLane(&dvm[k], &lv.fixed[k][-src-1])
						}
					}
				}
				if act == 0 {
					return 0, retired, killed
				}
			} else {
				// ϕ moves read simultaneously: stage every source for every
				// lane, then write. A lane whose source read faults retires;
				// a stage fault is uniform and retires the group.
				st := lv.scratch[:len(moves)*G]
				for i := range moves {
					mv := &moves[i]
					if mv.fault != nil {
						return 0, retired | act, killed
					}
					off := i * G
					for m := act; m != 0; {
						k := bits.TrailingZeros32(m)
						m &= m - 1
						v, ok := lv.readLane(pf, fr, mv.src, k)
						if !ok {
							act &^= 1 << k
							retired |= 1 << k
							continue
						}
						st[off+k] = v
					}
				}
				if act == 0 {
					return 0, retired, killed
				}
				for i := range moves {
					d := int(moves[i].dst) * G
					off := i * G
					for m := act; m != 0; {
						k := bits.TrailingZeros32(m)
						m &= m - 1
						fr[d+k] = st[off+k]
					}
				}
			}
		}

		for ii := range b.code {
			lv.steps++
			if lv.steps > MaxSteps {
				return 0, retired | act, killed
			}
			ins := &b.code[ii]
			switch ins.op {
			case popFault:
				return 0, retired | act, killed

			case popBin:
				// The hot case. Operand reads and the primitive fast paths
				// are inlined per lane with the slot offsets hoisted; slot
				// lanes are adjacent, so the loop walks contiguous memory.
				d := int(ins.dst) * G
				aOff, bOff := int(ins.a)*G, int(ins.b)*G
				slow := act
				if ins.prim != bpNone {
					// Unboxed prim loops: operands resolve to pointers, the
					// arithmetic is a Go expression on the payload fields,
					// and the result is written in place as Kind+payload. A
					// popBin result is always a scalar and its dst slot is
					// written by no other instruction (slots are per result
					// id), so the destination's Elems/Ptr fields are nil for
					// the frame's whole lifetime — in-place writes never
					// leave a stale pointer and never take a write barrier.
					//
					// Anything else — operand kinds that don't match the
					// prim's class, unset slots (fallback or retire), faults —
					// drops to the general loop below, which produces the
					// canonical behaviour. Fixed lane-invariant operands were
					// resolved to aConst/bConst at plan time; per-lane global
					// pointers cleared prim, so they never reach this path.
					//
					// The lane walk is dense with a mask test, not a
					// TrailingZeros scan: uniform groups have every bit set,
					// so the test never mispredicts, and the pre-sliced
					// operand windows let the compiler drop the per-lane
					// bounds checks.
					dv := fr[d : d+G : d+G]
					av, bs := dv, dv // placeholders; only read when the ref is a slot
					if ins.a >= 0 {
						av = fr[aOff : aOff+G : aOff+G]
					}
					if ins.b >= 0 {
						bs = fr[bOff : bOff+G : bOff+G]
					}
					// Equal-length re-slices: the conditional assignments
					// above hide the common length G from the prover, and
					// these put it back so av[k]/bs[k] need no bounds checks.
					av, bs = av[:len(dv)], bs[:len(dv)]
					aConst, bConst := ins.aConst, ins.bConst
					slow = 0
					// The prim switch sits outside the lane walk — one
					// dispatch per group, and each arm is a loop whose body
					// is a single expression on the payload fields.
					switch ins.fclass {
					case fcFloat:
						switch ins.prim {
						case bpFAdd:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindFloat || bv.Kind != KindFloat {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.F = KindFloat, a.F+bv.F
							}
						case bpFSub:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindFloat || bv.Kind != KindFloat {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.F = KindFloat, a.F-bv.F
							}
						case bpFMul:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindFloat || bv.Kind != KindFloat {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.F = KindFloat, a.F*bv.F
							}
						default: // bpFDiv; x/0 is IEEE ±Inf, defined
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindFloat || bv.Kind != KindFloat {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.F = KindFloat, a.F/bv.F
							}
						}
					case fcInt:
						switch ins.prim {
						case bpIAdd:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindInt || bv.Kind != KindInt {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.Bits = KindInt, a.Bits+bv.Bits
							}
						case bpISub:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindInt || bv.Kind != KindInt {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.Bits = KindInt, a.Bits-bv.Bits
							}
						case bpIMul:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindInt || bv.Kind != KindInt {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.Bits = KindInt, a.Bits*bv.Bits
							}
						case bpAnd:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindInt || bv.Kind != KindInt {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.Bits = KindInt, a.Bits&bv.Bits
							}
						case bpOr:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindInt || bv.Kind != KindInt {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.Bits = KindInt, a.Bits|bv.Bits
							}
						default: // bpXor
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindInt || bv.Kind != KindInt {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.Bits = KindInt, a.Bits^bv.Bits
							}
						}
					case fcFloatCmp:
						switch ins.prim {
						case bpFEq:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindFloat || bv.Kind != KindFloat {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.B = KindBool, a.F == bv.F
							}
						case bpFNe: // ordered: NaN compares not-equal to everything, excluded
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindFloat || bv.Kind != KindFloat {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.B = KindBool, a.F != bv.F && a.F == a.F && bv.F == bv.F
							}
						case bpFLt:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindFloat || bv.Kind != KindFloat {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.B = KindBool, a.F < bv.F
							}
						case bpFGt:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindFloat || bv.Kind != KindFloat {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.B = KindBool, a.F > bv.F
							}
						case bpFLe:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindFloat || bv.Kind != KindFloat {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.B = KindBool, a.F <= bv.F
							}
						default: // bpFGe
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindFloat || bv.Kind != KindFloat {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.B = KindBool, a.F >= bv.F
							}
						}
					case fcIntCmp:
						switch ins.prim {
						case bpIEq:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindInt || bv.Kind != KindInt {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.B = KindBool, a.Bits == bv.Bits
							}
						case bpINe:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindInt || bv.Kind != KindInt {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.B = KindBool, a.Bits != bv.Bits
							}
						case bpSLt:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindInt || bv.Kind != KindInt {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.B = KindBool, int32(a.Bits) < int32(bv.Bits)
							}
						case bpSLe:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindInt || bv.Kind != KindInt {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.B = KindBool, int32(a.Bits) <= int32(bv.Bits)
							}
						case bpSGt:
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindInt || bv.Kind != KindInt {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.B = KindBool, int32(a.Bits) > int32(bv.Bits)
							}
						default: // bpSGe
							for k := range dv {
								if act>>k&1 == 0 {
									continue
								}
								a, bv := aConst, bConst
								if a == nil {
									a = &av[k]
								}
								if bv == nil {
									bv = &bs[k]
								}
								if a.Kind != KindInt || bv.Kind != KindInt {
									slow |= 1 << k
									continue
								}
								o := &dv[k]
								o.Kind, o.B = KindBool, int32(a.Bits) >= int32(bv.Bits)
							}
						}
					}
				}
				for m := slow; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					var a, bv Value
					if r := ins.a; r < 0 {
						a = lv.fixed[k][-r-1]
					} else if a = fr[aOff+k]; a.Kind == KindUnset {
						if fb := pf.fallback[r]; fb != refNone {
							a = lv.fixed[k][-fb-1]
						} else {
							act &^= 1 << k
							retired |= 1 << k
							continue
						}
					}
					if r := ins.b; r < 0 {
						bv = lv.fixed[k][-r-1]
					} else if bv = fr[bOff+k]; bv.Kind == KindUnset {
						if fb := pf.fallback[r]; fb != refNone {
							bv = lv.fixed[k][-fb-1]
						} else {
							act &^= 1 << k
							retired |= 1 << k
							continue
						}
					}
					switch {
					case ins.fclass == fcFloat && a.Kind == KindFloat && bv.Kind == KindFloat:
						fr[d+k] = Value{Kind: KindFloat, F: ins.binF(a.F, bv.F)}
					case ins.fclass == fcFloatCmp && a.Kind == KindFloat && bv.Kind == KindFloat:
						fr[d+k] = Value{Kind: KindBool, B: ins.cmpF(a.F, bv.F)}
					case ins.fclass == fcInt && a.Kind == KindInt && bv.Kind == KindInt:
						fr[d+k] = Value{Kind: KindInt, Bits: ins.binI(a.Bits, bv.Bits)}
					case ins.fclass == fcIntCmp && a.Kind == KindInt && bv.Kind == KindInt:
						fr[d+k] = Value{Kind: KindBool, B: ins.cmpI(a.Bits, bv.Bits)}
					default:
						v, err := lv.evalBin(ins, a, bv)
						if err != nil {
							act &^= 1 << k
							retired |= 1 << k
							continue
						}
						fr[d+k] = v
					}
				}

			case popUn:
				d := int(ins.dst) * G
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					a, ok := lv.readLane(pf, fr, ins.a, k)
					if !ok {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					v, err := lv.lanes1(a, ins.un)
					if err != nil {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					fr[d+k] = v
				}

			case popSelect:
				d := int(ins.dst) * G
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					c, ok1 := lv.readLane(pf, fr, ins.a, k)
					a, ok2 := lv.readLane(pf, fr, ins.b, k)
					bv, ok3 := lv.readLane(pf, fr, ins.c, k)
					if !ok1 || !ok2 || !ok3 {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					v, err := selectValue(c, a, bv)
					if err != nil {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					fr[d+k] = v
				}

			case popVecScalar:
				d := int(ins.dst) * G
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					vec, ok1 := lv.readLane(pf, fr, ins.a, k)
					s, ok2 := lv.readLane(pf, fr, ins.b, k)
					if !ok1 || !ok2 {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					fr[d+k] = vectorTimesScalar(vec, s)
				}

			case popMatVec:
				d := int(ins.dst) * G
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					mat, ok1 := lv.readLane(pf, fr, ins.a, k)
					vec, ok2 := lv.readLane(pf, fr, ins.b, k)
					if !ok1 || !ok2 {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					v, err := matrixTimesVector(mat, vec)
					if err != nil {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					fr[d+k] = v
				}

			case popDot:
				d := int(ins.dst) * G
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					a, ok1 := lv.readLane(pf, fr, ins.a, k)
					bv, ok2 := lv.readLane(pf, fr, ins.b, k)
					if !ok1 || !ok2 {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					fr[d+k] = dot(a, bv)
				}

			case popConstruct:
				d := int(ins.dst) * G
			construct:
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					elems := lv.allocElems(len(ins.args))
					for i, r := range ins.args {
						var fb int32 = refNone
						if r >= 0 {
							fb = pf.fallback[r]
						}
						v := lv.laneOperand(fr, r, int(r)*G, fb, k)
						if v == nil {
							act &^= 1 << k
							retired |= 1 << k
							continue construct
						}
						elems[i] = *v
					}
					fr[d+k] = Value{Kind: KindComposite, Elems: elems}
				}

			case popExtract:
				d := int(ins.dst) * G
				aOff := int(ins.a) * G
				aFb := refNone
				if ins.a >= 0 {
					aFb = pf.fallback[ins.a]
				}
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					v := lv.laneOperand(fr, ins.a, aOff, aFb, k)
					if v == nil {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					if len(ins.lits) == 1 && v.Kind == KindComposite && int(ins.lits[0]) < len(v.Elems) {
						storeLane(&fr[d+k], &v.Elems[ins.lits[0]])
						continue
					}
					w, err := compositeExtract(*v, ins.lits)
					if err != nil {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					fr[d+k] = w
				}

			case popInsert:
				d := int(ins.dst) * G
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					obj, ok1 := lv.readLane(pf, fr, ins.a, k)
					base, ok2 := lv.readLane(pf, fr, ins.b, k)
					if !ok1 || !ok2 {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					v, err := compositeInsert(obj, base, ins.lits)
					if err != nil {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					fr[d+k] = v
				}

			case popShuffle:
				d := int(ins.dst) * G
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					a, ok1 := lv.readLane(pf, fr, ins.a, k)
					bv, ok2 := lv.readLane(pf, fr, ins.b, k)
					if !ok1 || !ok2 {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					v, err := vectorShuffle(a, bv, ins.lits)
					if err != nil {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					fr[d+k] = v
				}

			case popCopy:
				d := int(ins.dst) * G
				aOff := int(ins.a) * G
				aFb := refNone
				if ins.a >= 0 {
					aFb = pf.fallback[ins.a]
				}
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					v := lv.laneOperand(fr, ins.a, aOff, aFb, k)
					if v == nil {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					storeLane(&fr[d+k], v)
				}

			case popZero:
				d := int(ins.dst) * G
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					fr[d+k] = lv.arenaClone(ins.zero)
				}

			case popVariable:
				d := int(ins.dst) * G
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					var init Value
					if ins.a != refNone {
						v, ok := lv.readLane(pf, fr, ins.a, k)
						if !ok {
							act &^= 1 << k
							retired |= 1 << k
							continue
						}
						init = v.Clone()
					} else {
						init = ins.zero.Clone()
					}
					// A fresh cell per lane per execution, as in the scalar
					// VM: escaped pointers from earlier activations stay
					// valid, and lanes never share mutable storage.
					fr[d+k] = Value{Kind: KindPointer, Ptr: &Pointer{Cell: &Cell{V: init}}}
				}

			case popLoad:
				d := int(ins.dst) * G
				aOff := int(ins.a) * G
				aFb := refNone
				if ins.a >= 0 {
					aFb = pf.fallback[ins.a]
				}
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					pv := lv.laneOperand(fr, ins.a, aOff, aFb, k)
					if pv == nil || pv.Kind != KindPointer {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					fr[d+k] = lv.loadLanePtr(pv.Ptr)
				}

			case popStore:
				aOff, bOff := int(ins.a)*G, int(ins.b)*G
				aFb, bFb := refNone, refNone
				if ins.a >= 0 {
					aFb = pf.fallback[ins.a]
				}
				if ins.b >= 0 {
					bFb = pf.fallback[ins.b]
				}
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					pv := lv.laneOperand(fr, ins.a, aOff, aFb, k)
					v := lv.laneOperand(fr, ins.b, bOff, bFb, k)
					if pv == nil || v == nil || pv.Kind != KindPointer {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					storeInPlace(pv.Ptr, *v)
				}

			case popAccessChain:
				d := int(ins.dst) * G
			chain:
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					base, ok := lv.readLane(pf, fr, ins.a, k)
					if !ok || base.Kind != KindPointer {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					ptr := base.Ptr
					for _, r := range ins.args {
						idx, ok := lv.readLane(pf, fr, r, k)
						if !ok {
							act &^= 1 << k
							retired |= 1 << k
							continue chain
						}
						ptr = ptr.Elem(int(int32(idx.Bits)))
					}
					fr[d+k] = Value{Kind: KindPointer, Ptr: ptr}
				}

			case popCall:
				na := len(ins.args)
				args := lv.argbuf[:na*G]
				for i, r := range ins.args {
					off := i * G
					for m := act; m != 0; {
						k := bits.TrailingZeros32(m)
						m &= m - 1
						v, ok := lv.readLane(pf, fr, r, k)
						if !ok {
							act &^= 1 << k
							retired |= 1 << k
							continue
						}
						args[off+k] = v
					}
				}
				if act == 0 {
					return 0, retired, killed
				}
				// argbuf is consumed (copied into the callee frame) before
				// the callee body runs, and retbuf is written only at the
				// callee's return and copied out immediately below — so one
				// shared buffer each suffices across nested calls.
				a2, r2, k2 := lv.call(ins.callee, args, na, act, lv.retbuf)
				act, retired, killed = a2, retired|r2, killed|k2
				if ins.dst != refNone {
					d := int(ins.dst) * G
					for m := act; m != 0; {
						k := bits.TrailingZeros32(m)
						m &= m - 1
						fr[d+k] = lv.retbuf[k]
					}
				}

			case popNop:
				// costs a step, like the scalar VM's popNop
			}
			if act == 0 {
				return 0, retired, killed
			}
		}

		t := &b.term
		var e *pedge
		switch t.kind {
		case tkBranch:
			e = &t.edges[0]
		case tkCondBr:
			var tMask, fMask uint32
			sel := t.sel
			selOff := int(sel) * G
			selFb := refNone
			if sel >= 0 {
				selFb = pf.fallback[sel]
			}
			if sel >= 0 {
				sv := fr[selOff : selOff+G : selOff+G]
				for k := range sv {
					if act>>k&1 == 0 {
						continue
					}
					c := &sv[k]
					if c.Kind != KindBool {
						if c = lv.laneOperand(fr, sel, selOff, selFb, k); c == nil || c.Kind != KindBool {
							act &^= 1 << k
							retired |= 1 << k
							continue
						}
					}
					if c.B {
						tMask |= 1 << k
					} else {
						fMask |= 1 << k
					}
				}
			} else {
				for m := act; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					c := lv.laneOperand(fr, sel, selOff, selFb, k)
					if c == nil || c.Kind != KindBool {
						act &^= 1 << k
						retired |= 1 << k
						continue
					}
					if c.B {
						tMask |= 1 << k
					} else {
						fMask |= 1 << k
					}
				}
			}
			switch {
			case tMask != 0 && fMask != 0:
				// Divergence: the majority keeps the warp, the minority
				// retires to the scalar VM (ties take the true edge).
				lv.stats.Divergences++
				if bits.OnesCount32(tMask) >= bits.OnesCount32(fMask) {
					act, retired = tMask, retired|fMask
					e = &t.edges[0]
				} else {
					act, retired = fMask, retired|tMask
					e = &t.edges[1]
				}
			case tMask != 0:
				act, e = tMask, &t.edges[0]
			case fMask != 0:
				act, e = fMask, &t.edges[1]
			default:
				return 0, retired, killed
			}
		case tkSwitch:
			// Per-lane edge via the jump table; the most popular edge keeps
			// the warp (ties break to the lowest edge index, which is
			// deterministic and semantics-neutral — losers retire).
			var votes [32]uint32 // votes[e]: mask of lanes choosing edge e
			for m := act; m != 0; {
				k := bits.TrailingZeros32(m)
				m &= m - 1
				sel, ok := lv.readLane(pf, fr, t.sel, k)
				if !ok || sel.Kind != KindInt {
					act &^= 1 << k
					retired |= 1 << k
					continue
				}
				ei := int32(0) // default edge
				if j, ok := t.jump[sel.Bits]; ok {
					ei = j
				}
				if int(ei) < len(votes) {
					votes[ei] |= 1 << k
				} else {
					// An edge index beyond the vote array (a pathological
					// switch with >32 cases): retire the lane rather than
					// complicate the uniform path.
					act &^= 1 << k
					retired |= 1 << k
				}
			}
			if act == 0 {
				return 0, retired, killed
			}
			best, bestN := 0, 0
			for ei := range votes {
				if n := bits.OnesCount32(votes[ei]); n > bestN {
					best, bestN = ei, n
				}
			}
			if win := votes[best]; win != act {
				lv.stats.Divergences++
				retired |= act &^ win
				act = win
			}
			e = &t.edges[best]
		case tkReturn:
			for m := act; m != 0; {
				k := bits.TrailingZeros32(m)
				m &= m - 1
				ret[k] = Value{}
			}
			return act, retired, killed
		case tkReturnValue:
			rOff := int(t.ret) * G
			rFb := refNone
			if t.ret >= 0 {
				rFb = pf.fallback[t.ret]
			}
			for m := act; m != 0; {
				k := bits.TrailingZeros32(m)
				m &= m - 1
				v := lv.laneOperand(fr, t.ret, rOff, rFb, k)
				if v == nil {
					act &^= 1 << k
					retired |= 1 << k
					continue
				}
				ret[k] = *v
			}
			return act, retired, killed
		case tkKill:
			return 0, retired, killed | act
		default: // tkFault
			return 0, retired | act, killed
		}
		if e.fault != nil {
			return 0, retired | act, killed
		}
		if bits.OnesCount32(act) < lv.bailMin {
			// Bail-to-scalar early-out: divergence has whittled the warp
			// below two live lanes, so every further uniform dispatch costs
			// more here than on the scalar VM. Retire the stragglers now.
			return 0, retired | act, killed
		}
		moves, direct = e.moves, e.direct
		bi = e.target
	}
}

// loadLanePtr is vmachine.loadPtr for the lane VM: a pointer load whose copy
// comes from the shared group arena.
func (lv *laneVM) loadLanePtr(p *Pointer) Value {
	v := &p.Cell.V
	for _, i := range p.Path {
		v = &v.Elems[i]
	}
	return lv.arenaClone(*v)
}

// Adaptive width selection probes the first row at this width; its group
// count (w/8 groups on the default 64-wide grid) gives the divergence rate
// enough samples to be meaningful at the cost of 1/h of the render.
const autoProbeLanes = 8

// autoDivergenceMax is the divergence-plus-fallback rate (events per group)
// above which lane mode stops paying for itself and the adaptive policy
// drops to the scalar VM; below it, 8 lanes win, and a perfectly uniform
// probe (no divergence, no fallback) escalates to the full 16.
const autoDivergenceMax = 0.25

// laneRejectFallbackRate is the probe's retired-pixel fraction above which
// the predicted speedup is below 1x at every width: each retired pixel is
// paid for twice (the abandoned lane work plus a full scalar re-render), so
// even if the surviving majority amortized perfectly, a retire rate this
// high makes the lane render slower than going straight to the scalar VM —
// exactly the divergent-stripe shape BenchmarkInterpVMLanes pins at ~0.5x.
const laneRejectFallbackRate = 0.2

// pickLanes is the adaptive lane-width policy behind SetLanesAuto: render
// the first row in lane groups of autoProbeLanes into a throwaway row
// buffer, then pick the width the observed control-flow behavior earns.
// Pure policy — every width produces byte-identical images and faults
// (pinned by the differential suite), so the choice only moves time. A
// faulting probe picks scalar: the fault is the render's result and the
// scalar VM reaches it most cheaply. Probe stats stay out of LaneTotals
// (only RenderParallelLanes accumulates there).
func (p *Program) pickLanes(in Inputs) int {
	w, h := in.W, in.H
	if w == 0 {
		w = DefaultGrid
	}
	if h == 0 {
		h = DefaultGrid
	}
	// Full W/H keep the coordinate math exact; only row 0 is backed.
	probe := &Image{W: w, H: h, Pix: make([]uint8, 4*w)}
	lv := p.newLaneVM(in, autoProbeLanes)
	_, err := p.renderRowsLanes(lv, in, probe, 0, 1)
	pick := 0
	switch st := lv.stats; {
	case err != nil:
		pick = 0
	case float64(st.Fallbacks) >= laneRejectFallbackRate*float64(w):
		// The probe rendered w pixels; this many of them retired to the
		// scalar VM. The measured retire rate predicts a sub-1x speedup at
		// any width (see laneRejectFallbackRate), so reject lane mode
		// outright rather than letting the per-group divergence heuristic
		// weigh in.
		pick = 0
	case st.Divergences == 0 && st.Fallbacks == 0:
		pick = MaxLanes
	case float64(st.Divergences+st.Fallbacks) <= autoDivergenceMax*float64(st.Groups):
		pick = autoProbeLanes
	}
	switch pick {
	case 0:
		autoPickTotals[0].Add(1)
	case autoProbeLanes:
		autoPickTotals[1].Add(1)
	default:
		autoPickTotals[2].Add(1)
	}
	return pick
}

// RenderParallelLanes renders with up to workers goroutines over disjoint
// row bands, each executing groups of `lanes` pixels on a laneVM with
// scalar-VM fallback for divergent or faulting lanes. The output contract is
// identical to RenderParallel: images are byte-equal to the scalar render
// for any lane and worker count, and a faulting module reports the fault of
// the scan-order-first pixel. The returned LaneStats aggregate all bands;
// the same numbers accumulate into the process-wide LaneTotals.
func (p *Program) RenderParallelLanes(in Inputs, workers, lanes int) (*Image, LaneStats, error) {
	if lanes < 1 {
		lanes = 1
	}
	if lanes > MaxLanes {
		lanes = MaxLanes
	}
	w, h := in.W, in.H
	if w == 0 {
		w = DefaultGrid
	}
	if h == 0 {
		h = DefaultGrid
	}
	img := &Image{W: w, H: h, Pix: make([]uint8, 4*w*h)}
	if workers > h {
		workers = h
	}
	if workers <= 1 {
		lv := p.newLaneVM(in, lanes)
		_, err := p.renderRowsLanes(lv, in, img, 0, h)
		addLaneTotals(lv.stats)
		if err != nil {
			return nil, lv.stats, err
		}
		return img, lv.stats, nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstPix int
		firstErr error
		total    LaneStats
	)
	for b := 0; b < workers; b++ {
		y0, y1 := b*h/workers, (b+1)*h/workers
		wg.Add(1)
		go func(y0, y1 int) {
			defer wg.Done()
			lv := p.newLaneVM(in, lanes)
			pix, err := p.renderRowsLanes(lv, in, img, y0, y1)
			mu.Lock()
			total.add(lv.stats)
			if err != nil && (firstErr == nil || pix < firstPix) {
				firstPix, firstErr = pix, err
			}
			mu.Unlock()
		}(y0, y1)
	}
	wg.Wait()
	addLaneTotals(total)
	if firstErr != nil {
		return nil, total, firstErr
	}
	return img, total, nil
}

// renderRowsLanes renders rows [y0, y1) in lane groups along x. Retired
// lanes are re-rendered immediately — in ascending lane order, before the
// next group starts — on a lazily created scalar machine, so the first fault
// encountered is the fault a serial scalar scan of the band would hit first
// (lane-completed pixels never fault). On a fault it returns the pixel's
// scan-order index, like renderRows.
func (p *Program) renderRowsLanes(lv *laneVM, in Inputs, img *Image, y0, y1 int) (int, error) {
	w, h := img.W, img.H
	G := lv.G
	var svm *vmachine // scalar fallback machine, created on first retire
	for y := y0; y < y1; y++ {
		for x0 := 0; x0 < w; x0 += G {
			g := min(G, w-x0)
			for k := 0; k < g; k++ {
				if p.coord >= 0 {
					cx := (float32(x0+k) + 0.5) / float32(w)
					cy := (float32(y) + 0.5) / float32(h)
					lv.setCoord(k, cx, cy)
				}
				lv.resetColor(k)
			}
			// Per-group (not per-instruction, not per-pixel) resets: the
			// shared step budget and the element arena recycle once per
			// group; frames and staging buffers are reused across tiles.
			lv.steps = 0
			lv.eoff = 0
			lv.stats.Groups++
			alive, retiredM, killed := lv.call(p.entry, nil, 0, uint32(1)<<g-1, lv.retbuf)
			for m := alive; m != 0; {
				k := bits.TrailingZeros32(m)
				m &= m - 1
				pi := 4 * (y*w + x0 + k)
				writePixel(img.Pix[pi:pi+4:pi+4], lv.cells[k][p.color].V)
			}
			for m := killed; m != 0; {
				k := bits.TrailingZeros32(m)
				m &= m - 1
				pi := 4 * (y*w + x0 + k)
				img.Pix[pi], img.Pix[pi+1], img.Pix[pi+2], img.Pix[pi+3] = 0, 0, 0, 0
			}
			if retiredM != 0 {
				lv.stats.Fallbacks += uint64(bits.OnesCount32(retiredM))
				if svm == nil {
					svm = p.newVM(in)
				}
				for m := retiredM; m != 0; {
					k := bits.TrailingZeros32(m)
					m &= m - 1
					if pix, err := p.renderPixel(svm, img, x0+k, y); err != nil {
						return pix, err
					}
				}
			}
		}
	}
	return 0, nil
}
