package cfa_test

import (
	"reflect"
	"testing"

	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/cfa"
)

// fn builds a function skeleton from (label, successor-list) pairs. The
// first block is the entry. Terminators are OpBranch/OpBranchConditional/
// OpReturn depending on successor count (conditions use a dummy id).
func fnOf(t *testing.T, blocks ...[]spirv.ID) *spirv.Function {
	t.Helper()
	f := &spirv.Function{Def: spirv.NewInstr(spirv.OpFunction, 1, 100, spirv.FunctionControlNone, 2)}
	for _, spec := range blocks {
		b := &spirv.Block{Label: spec[0]}
		switch len(spec) - 1 {
		case 0:
			b.Term = spirv.NewInstr(spirv.OpReturn, 0, 0)
		case 1:
			b.Term = spirv.NewInstr(spirv.OpBranch, 0, 0, uint32(spec[1]))
		case 2:
			b.Term = spirv.NewInstr(spirv.OpBranchConditional, 0, 0, 999, uint32(spec[1]), uint32(spec[2]))
		default:
			t.Fatalf("too many successors")
		}
		f.Blocks = append(f.Blocks, b)
	}
	return f
}

func TestCFGAndReachability(t *testing.T) {
	// 1 -> (2, 3); 2 -> 4; 3 -> 4; 4 halt; 5 orphan.
	f := fnOf(t, []spirv.ID{1, 2, 3}, []spirv.ID{2, 4}, []spirv.ID{3, 4}, []spirv.ID{4}, []spirv.ID{5, 4})
	g := cfa.Build(f)
	if !reflect.DeepEqual(g.Succs(0), []int32{1, 2}) {
		t.Fatalf("succs(1) = %v", g.Succs(0))
	}
	if preds := g.Preds(3); !reflect.DeepEqual(preds, []int32{1, 2, 4}) { // 2, 3 and the orphan 5
		t.Fatalf("preds(4) = %v", preds)
	}
	for label, want := range map[spirv.ID]int{1: 0, 4: 3, 5: 4, 6: -1, 0: -1, 1 << 30: -1} {
		if got := g.Index(label); got != want {
			t.Errorf("Index(%d) = %d, want %d", label, got, want)
		}
	}
	reach := g.Reachable()
	for i := range 4 {
		if !reach[i] {
			t.Errorf("block %d should be reachable", f.Blocks[i].Label)
		}
	}
	if reach[4] {
		t.Error("orphan block 5 must be unreachable")
	}
}

func TestDominators(t *testing.T) {
	// Classic diamond with a loop back-edge:
	// 1 -> 2; 2 -> (3,4); 3 -> 5; 4 -> 5; 5 -> (2, 6); 6 halt.
	f := fnOf(t,
		[]spirv.ID{1, 2},
		[]spirv.ID{2, 3, 4},
		[]spirv.ID{3, 5},
		[]spirv.ID{4, 5},
		[]spirv.ID{5, 2, 6},
		[]spirv.ID{6},
	)
	// Labels 1..6 are block indices 0..5.
	d := cfa.Dominators(cfa.Build(f))
	want := map[int]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 4}
	for b, idom := range want {
		if d.Idom(b) != idom {
			t.Errorf("idom(%d) = %d, want %d", b+1, d.Idom(b)+1, idom+1)
		}
	}
	if !d.Dominates(0, 5) || !d.Dominates(1, 5) || !d.Dominates(4, 5) {
		t.Error("1, 2, 5 must dominate 6")
	}
	if d.Dominates(2, 4) || d.Dominates(3, 4) {
		t.Error("3 and 4 must not dominate 5")
	}
	if !d.Dominates(2, 2) {
		t.Error("dominance is reflexive")
	}
	if d.StrictlyDominates(2, 2) {
		t.Error("strict dominance is irreflexive")
	}
	if d.Dominates(-1, 2) || d.Dominates(2, -1) || d.Dominates(-1, -1) {
		t.Error("a missing block dominates nothing and is dominated by nothing")
	}
	// Unreachable blocks are dominated by nothing else.
	f2 := fnOf(t, []spirv.ID{1}, []spirv.ID{9})
	d2 := cfa.Dominators(cfa.Build(f2))
	if d2.Dominates(0, 1) || d2.Idom(1) != -1 {
		t.Error("unreachable block must not be dominated by entry")
	}
	if !d2.Dominates(1, 1) {
		t.Error("an unreachable block dominates itself")
	}
}

func TestReversePostOrder(t *testing.T) {
	f := fnOf(t, []spirv.ID{1, 2, 3}, []spirv.ID{2, 4}, []spirv.ID{3, 4}, []spirv.ID{4})
	rpo := cfa.Build(f).ReversePostOrder()
	if rpo[0] != 0 || rpo[len(rpo)-1] != 3 {
		t.Fatalf("rpo = %v", rpo)
	}
	pos := map[int32]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	if !(pos[0] < pos[1] && pos[0] < pos[2] && pos[1] < pos[3] && pos[2] < pos[3]) {
		t.Fatalf("rpo order violated: %v", rpo)
	}
}

func TestAvailability(t *testing.T) {
	// Build: entry(1): %10 = CopyObject %c ; cond branch (3,4)
	// 3: %11 = CopyObject %10; branch 5.  4: branch 5.  5: ret.
	m := spirv.NewModule()
	f32 := m.EnsureTypeFloat(32)
	c := m.EnsureConstantFloat(2)
	void := m.EnsureTypeVoid()
	fnType := m.EnsureTypeFunction(void)
	cond := m.EnsureConstantBool(true)
	fn := &spirv.Function{Def: spirv.NewInstr(spirv.OpFunction, void, m.FreshID(), spirv.FunctionControlNone, uint32(fnType))}
	b1 := &spirv.Block{Label: m.FreshID()}
	b3 := &spirv.Block{Label: m.FreshID()}
	b4 := &spirv.Block{Label: m.FreshID()}
	b5 := &spirv.Block{Label: m.FreshID()}
	v10 := m.FreshID()
	b1.Body = append(b1.Body, spirv.NewInstr(spirv.OpCopyObject, f32, v10, uint32(c)))
	b1.Merge = spirv.NewInstr(spirv.OpSelectionMerge, 0, 0, uint32(b5.Label), spirv.SelectionControlNone)
	b1.Term = spirv.NewInstr(spirv.OpBranchConditional, 0, 0, uint32(cond), uint32(b3.Label), uint32(b4.Label))
	v11 := m.FreshID()
	b3.Body = append(b3.Body, spirv.NewInstr(spirv.OpCopyObject, f32, v11, uint32(v10)))
	b3.Term = spirv.NewInstr(spirv.OpBranch, 0, 0, uint32(b5.Label))
	b4.Term = spirv.NewInstr(spirv.OpBranch, 0, 0, uint32(b5.Label))
	b5.Term = spirv.NewInstr(spirv.OpReturn, 0, 0)
	fn.Blocks = []*spirv.Block{b1, b3, b4, b5}
	m.Functions = append(m.Functions, fn)

	info := cfa.Analyze(m, fn)
	if !info.AvailableAt(v10, b3.Label, 0) {
		t.Error("v10 (entry) must be available in b3")
	}
	if !info.AvailableAt(v10, b5.Label, 0) {
		t.Error("v10 (entry) must be available in b5 (entry dominates all)")
	}
	if info.AvailableAt(v11, b5.Label, 0) {
		t.Error("v11 (defined in b3) must NOT be available in b5 (b3 does not dominate)")
	}
	if info.AvailableAt(v11, b4.Label, 0) {
		t.Error("v11 must not be available in sibling b4")
	}
	if !info.AvailableAt(v11, b3.Label, 1) {
		t.Error("v11 available after its own definition")
	}
	if info.AvailableAt(v10, b1.Label, 0) {
		t.Error("v10 not available before its own definition")
	}
	if !info.AvailableAt(c, b4.Label, 0) {
		t.Error("constants are available everywhere")
	}
	if info.AvailableAt(b3.Label, b5.Label, 0) || info.AvailableAt(b3.Label, b3.Label, 1) {
		t.Error("labels are not values")
	}
	if !info.ModuleScope(c) || info.ModuleScope(v10) {
		t.Error("constants are at module scope, body results are not")
	}
	// Ids at or above the bound are defined nowhere, and never panic.
	for _, id := range []spirv.ID{m.Bound, m.Bound + 1, 1<<32 - 1} {
		if info.AvailableAt(id, b5.Label, 0) || info.ModuleScope(id) {
			t.Errorf("id %d at or above the bound must not be available", id)
		}
	}
	if info.AvailableAt(v10, 1<<32-1, 0) {
		t.Error("no id is available in a block that does not exist")
	}
}

func TestBlockOrderRespectsDominance(t *testing.T) {
	// Order 1,2,3,4 with 1->(2,3), 2->4, 3->4 is fine; 4 before 2 is fine
	// too (4's idom is 1); but a dominated block before its idom is not.
	respects := func(f *spirv.Function) bool { return cfa.Dominators(cfa.Build(f)).RespectsBlockOrder() }
	f := fnOf(t, []spirv.ID{1, 2, 3}, []spirv.ID{2, 4}, []spirv.ID{3, 4}, []spirv.ID{4})
	if !respects(f) {
		t.Fatal("valid order rejected")
	}
	// Swap 4 (idom 1) before 2 and 3: still valid.
	f.Blocks[1], f.Blocks[3] = f.Blocks[3], f.Blocks[1]
	if !respects(f) {
		t.Fatal("reorder of siblings rejected (Figure 8b shape)")
	}
	// 1 -> 2 -> 3 chain with 3 placed before 2: 3's idom is 2, invalid.
	g := fnOf(t, []spirv.ID{1, 2}, []spirv.ID{2, 3}, []spirv.ID{3})
	g.Blocks[1], g.Blocks[2] = g.Blocks[2], g.Blocks[1]
	if respects(g) {
		t.Fatal("dominated block before dominator accepted")
	}
	// An unreachable block may come anywhere after the entry.
	h := fnOf(t, []spirv.ID{1, 3}, []spirv.ID{9, 3}, []spirv.ID{3})
	if !respects(h) {
		t.Fatal("unreachable block before its successor rejected")
	}
}
