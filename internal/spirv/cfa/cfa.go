// Package cfa provides control-flow analyses over SPIR-V functions: the
// control-flow graph, reachability, dominator trees (Cooper-Harvey-Kennedy),
// and availability of ids at use sites. These are the analyses the
// validator, optimizer and transformations all share.
//
// Every analysis is dense. Blocks are numbered by their position in
// fn.Blocks (block 0 is the entry), edges and dominators are int32 block
// indices, and per-id tables are slices indexed by id. Replay asks for
// these analyses once per transformation precondition, so they allocate a
// handful of flat slices and no maps.
package cfa

import "spirvfuzz/internal/spirv"

// MaxTable caps every id-indexed table at the SPIR-V universal limit on a
// module's id bound (4,194,303, so ids run below 1<<22). The validator
// rejects larger bounds; on a module that exceeds the limit anyway, ids at
// or past the cap are treated as defined nowhere, so an adversarial bound
// or label costs at most one capped table, never a 4 GiB one.
const MaxTable = 1 << 22

// tableLen is the length of an id-indexed table covering ids below n.
func tableLen(n int64) int { return int(min(n, MaxTable)) }

// CFG is the control-flow graph of one function over block indices: block
// i is Fn.Blocks[i]. Edges are stored in compressed rows, one entry per
// edge, so a conditional branch or switch with repeated targets lists the
// target once per occurrence. Branch targets that are not blocks of the
// function have no edge.
type CFG struct {
	Fn      *spirv.Function
	succ    []int32 // successors of block i: succ[succOff[i]:succOff[i+1]]
	succOff []int32
	pred    []int32 // predecessors of block i, in block then operand order
	predOff []int32
	index   []int32 // label id -> block index + 1; 0 for other ids
}

// Build computes the CFG of fn.
func Build(fn *spirv.Function) *CFG {
	g := new(CFG)
	g.build(fn)
	return g
}

func (g *CFG) build(fn *spirv.Function) {
	n := len(fn.Blocks)
	off := make([]int32, 2*n+3)
	*g = CFG{Fn: fn, succOff: off[: n+1 : n+1], predOff: off[n+1:], succ: make([]int32, 0, 2*n)}
	var maxLabel spirv.ID
	for _, b := range fn.Blocks {
		maxLabel = max(maxLabel, b.Label)
	}
	g.index = make([]int32, tableLen(int64(maxLabel)+1))
	for i := n - 1; i >= 0; i-- { // the first block with a label wins, as in fn.Block
		if l := fn.Blocks[i].Label; int(l) < len(g.index) {
			g.index[l] = int32(i) + 1
		}
	}
	var scratch [8]spirv.ID
	for i, b := range fn.Blocks {
		for _, s := range b.AppendSuccessors(scratch[:0]) {
			if j := g.Index(s); j >= 0 {
				g.succ = append(g.succ, int32(j))
				g.predOff[j+2]++
			}
		}
		g.succOff[i+1] = int32(len(g.succ))
	}
	// Counting sort of the edges by target: predOff[j+1] becomes the start
	// of block j's row, and filling advances it to the row's end.
	for j := 2; j < len(g.predOff); j++ {
		g.predOff[j] += g.predOff[j-1]
	}
	g.pred = make([]int32, len(g.succ))
	for i := range n {
		for _, j := range g.Succs(i) {
			g.pred[g.predOff[j+1]] = int32(i)
			g.predOff[j+1]++
		}
	}
	g.predOff = g.predOff[:n+1]
}

// Index returns the index of the block labelled label, or -1 if no block
// of the function has that label.
func (g *CFG) Index(label spirv.ID) int {
	if int64(label) >= int64(len(g.index)) {
		return -1
	}
	return int(g.index[label]) - 1
}

// Succs returns block i's successor indices. The slice is shared with the
// graph and must not be modified.
func (g *CFG) Succs(i int) []int32 { return g.succ[g.succOff[i]:g.succOff[i+1]] }

// Preds returns block i's predecessor indices, one per edge, reachable or
// not. The slice is shared with the graph and must not be modified.
func (g *CFG) Preds(i int) []int32 { return g.pred[g.predOff[i]:g.predOff[i+1]] }

// Reachable reports, per block index, whether the block is reachable from
// the entry block.
func (g *CFG) Reachable() []bool {
	seen := make([]bool, len(g.Fn.Blocks))
	for _, b := range g.ReversePostOrder() {
		seen[b] = true
	}
	return seen
}

// ReversePostOrder returns the reachable blocks' indices in reverse
// post-order. The DFS visits successors in reverse declaration order, which
// yields the conventional layout order (then-arm before else-arm before
// merge) — the order builders and compilers naturally emit, so a module
// laid out naturally is already in RPO.
func (g *CFG) ReversePostOrder() []int32 {
	n := len(g.Fn.Blocks)
	if n == 0 {
		return nil
	}
	post := make([]int32, 0, n)
	seen := make([]bool, n)
	// Each frame is a block and how many of its successors, counted from
	// the last, it has visited; this is the recursive DFS unrolled.
	type frame struct{ b, next int32 }
	stack := append(make([]frame, 0, n), frame{0, 0})
	seen[0] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		succs := g.Succs(int(top.b))
		if int(top.next) == len(succs) {
			post = append(post, top.b)
			stack = stack[:len(stack)-1]
			continue
		}
		s := succs[len(succs)-1-int(top.next)]
		top.next++
		if !seen[s] {
			seen[s] = true
			stack = append(stack, frame{s, 0})
		}
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// DomTree is the dominator tree of a function's reachable blocks, over
// block indices.
type DomTree struct {
	// idom holds each block's immediate dominator; the entry is its own
	// and an unreachable block has -1.
	idom []int32
}

// Dominators computes the dominator tree with the Cooper-Harvey-Kennedy
// iterative algorithm over reverse post-order.
func Dominators(g *CFG) *DomTree {
	d := new(DomTree)
	d.build(g)
	return d
}

func (d *DomTree) build(g *CFG) {
	rpo := g.ReversePostOrder()
	n := len(g.Fn.Blocks)
	// One allocation: idom, then each block's RPO number (-1 unreachable).
	buf := make([]int32, 2*n)
	d.idom = buf[:n:n]
	num := buf[n:]
	for i := range buf {
		buf[i] = -1
	}
	if len(rpo) == 0 {
		return
	}
	for i, b := range rpo {
		num[b] = int32(i)
	}
	d.idom[0] = 0
	intersect := func(a, b int32) int32 {
		for a != b {
			for num[a] > num[b] {
				a = d.idom[a]
			}
			for num[b] > num[a] {
				b = d.idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			newIdom := int32(-1)
			for _, p := range g.Preds(int(b)) {
				if d.idom[p] < 0 {
					continue // predecessor not yet processed or unreachable
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && d.idom[b] != newIdom {
				d.idom[b] = newIdom
				changed = true
			}
		}
	}
}

// Idom returns block b's immediate dominator: b itself for the entry, -1
// for an unreachable block.
func (d *DomTree) Idom(b int) int { return int(d.idom[b]) }

// Dominates reports whether block a dominates block b (reflexively).
// Unreachable blocks dominate nothing and are dominated only by themselves;
// a negative index (no block) dominates nothing and is dominated by nothing.
func (d *DomTree) Dominates(a, b int) bool {
	if a < 0 || b < 0 {
		return false
	}
	if a == b {
		return true
	}
	cur := d.idom[b]
	if cur < 0 {
		return false
	}
	for {
		if int(cur) == a {
			return true
		}
		if cur == 0 { // the entry
			return false
		}
		cur = d.idom[cur]
	}
}

// StrictlyDominates reports whether a strictly dominates b.
func (d *DomTree) StrictlyDominates(a, b int) bool {
	return a != b && d.Dominates(a, b)
}

// RespectsBlockOrder reports whether the function's block order satisfies
// the SPIR-V rule: each block appears after every block that strictly
// dominates it. Unreachable blocks may appear anywhere after the entry,
// which is block 0 by construction.
func (d *DomTree) RespectsBlockOrder() bool {
	for i, p := range d.idom {
		if i > 0 && int(p) >= i {
			return false
		}
	}
	return true
}

// def locates one id's definition: blk is the defining block's index + 1,
// 0 for ids not defined in the function and -1 for module scope; pos is
// the position in the block (ϕs first, then body instructions), -1 for the
// block's own label.
type def struct{ blk, pos int32 }

// Info bundles the per-function analyses needed to answer availability
// queries: where each id is defined and whether a definition reaches a use.
type Info struct {
	Mod *spirv.Module
	Fn  *spirv.Function
	G   *CFG
	Dom *DomTree
	// defs is indexed by id and sized from Mod.Bound (at most MaxTable);
	// ids past its end are never recorded and are defined nowhere.
	defs []def
}

// Analyze computes Info for fn within m.
func Analyze(m *spirv.Module, fn *spirv.Function) *Info {
	// The info, its graph and its tree share one allocation.
	all := new(struct {
		info Info
		g    CFG
		dom  DomTree
	})
	all.g.build(fn)
	all.dom.build(&all.g)
	info := &all.info
	*info = Info{Mod: m, Fn: fn, G: &all.g, Dom: &all.dom, defs: make([]def, tableLen(int64(m.Bound)))}
	set := func(id spirv.ID, d def) {
		if int64(id) < int64(len(info.defs)) {
			info.defs[id] = d
		}
	}
	for i, b := range fn.Blocks {
		blk := int32(i) + 1
		set(b.Label, def{blk, -1})
		pos := int32(0)
		for _, p := range b.Phis {
			set(p.Result, def{blk, pos})
			pos++
		}
		for _, ins := range b.Body {
			if ins.Result != 0 {
				set(ins.Result, def{blk, pos})
			}
			pos++
		}
	}
	// Module scope is recorded last so it wins over a clashing local
	// definition: types, constants, globals, every function's id and this
	// function's parameters are available everywhere in the function.
	scope := def{-1, 0}
	for _, ins := range m.TypesGlobals {
		if ins.Result != 0 {
			set(ins.Result, scope)
		}
	}
	for _, f := range m.Functions {
		set(f.ID(), scope)
	}
	for _, p := range fn.Params {
		set(p.Result, scope)
	}
	return info
}

// ModuleScope reports whether id is defined at module scope (types,
// constants, globals, all functions' ids) or is one of this function's
// parameters.
func (info *Info) ModuleScope(id spirv.ID) bool {
	return int64(id) < int64(len(info.defs)) && info.defs[id].blk < 0
}

// PosOf returns the position of the instruction at index i of block b's
// Body in the block-wide numbering used for definitions.
func (info *Info) PosOf(b *spirv.Block, bodyIndex int) int {
	return len(b.Phis) + bodyIndex
}

// AvailableAt reports whether id may be used by the instruction at position
// pos of the block labelled blk: id is at module scope or a parameter, or
// defined earlier in the same block, or defined in a block that strictly
// dominates blk.
func (info *Info) AvailableAt(id spirv.ID, blk spirv.ID, pos int) bool {
	if int64(id) >= int64(len(info.defs)) {
		return false
	}
	d := info.defs[id]
	switch {
	case d.blk < 0:
		return true
	case d.blk == 0:
		return false
	}
	db, ub := int(d.blk)-1, info.G.Index(blk)
	if db == ub {
		return d.pos >= 0 && int(d.pos) < pos // a block's own label is never a value
	}
	return info.Dom.StrictlyDominates(db, ub)
}
