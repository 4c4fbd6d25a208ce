package cfa_test

import (
	"slices"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/cfa"
)

// fuzzedModules returns every corpus reference plus fuzzed variants of each:
// the shapes replay and the optimizer feed the analyses.
func fuzzedModules(t testing.TB, seeds int) []*spirv.Module {
	t.Helper()
	var out []*spirv.Module
	for _, item := range corpus.References() {
		out = append(out, item.Mod)
		for seed := range seeds {
			res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{Seed: int64(seed), Donors: corpus.Donors(), EnableRecommendations: true})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.Variant)
		}
	}
	return out
}

// reachWithout returns the labels reachable from the entry when the block
// labelled removed is deleted (0 removes nothing), following raw successor
// labels.
func reachWithout(fn *spirv.Function, removed spirv.ID) map[spirv.ID]bool {
	seen := map[spirv.ID]bool{}
	entry := fn.Blocks[0].Label
	if entry == removed {
		return seen
	}
	stack := []spirv.ID{entry}
	seen[entry] = true
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range fn.Block(l).Successors() {
			if s != removed && !seen[s] && fn.Block(s) != nil {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// checkAgainstDefinitions compares every analysis of fn with its definition,
// computed by brute force from labels:
//   - a block is reachable iff a path from the entry reaches it;
//   - a dominates b iff a == b, or b is reachable and removing a makes b
//     unreachable;
//   - id is available at (blk, pos) iff it is a module-scope id (type,
//     constant, global, function, parameter of fn), or it is defined in
//     blk before pos (a label is not, in its own block), or its block
//     strictly dominates blk.
func checkAgainstDefinitions(t *testing.T, m *spirv.Module, fn *spirv.Function) {
	t.Helper()
	info := cfa.Analyze(m, fn)
	g, dom := info.G, info.Dom
	reach := reachWithout(fn, 0)
	gotReach := g.Reachable()
	for i, b := range fn.Blocks {
		if g.Index(b.Label) != i {
			t.Fatalf("fn %%%d: Index(%d) = %d, want %d", fn.ID(), b.Label, g.Index(b.Label), i)
		}
		if gotReach[i] != reach[b.Label] {
			t.Fatalf("fn %%%d: reachable(%d) = %v", fn.ID(), b.Label, gotReach[i])
		}
		var wantSuccs, gotSuccs []spirv.ID
		for _, s := range b.Successors() {
			if fn.Block(s) != nil {
				wantSuccs = append(wantSuccs, s)
			}
		}
		for _, s := range g.Succs(i) {
			gotSuccs = append(gotSuccs, fn.Blocks[s].Label)
		}
		if !slices.Equal(gotSuccs, wantSuccs) {
			t.Fatalf("fn %%%d: succs(%d) = %v, want %v", fn.ID(), b.Label, gotSuccs, wantSuccs)
		}
		var wantPreds, gotPreds []spirv.ID
		for _, p := range fn.Blocks {
			for _, s := range p.Successors() {
				if s == b.Label {
					wantPreds = append(wantPreds, p.Label)
				}
			}
		}
		for _, p := range g.Preds(i) {
			gotPreds = append(gotPreds, fn.Blocks[p].Label)
		}
		if !slices.Equal(gotPreds, wantPreds) {
			t.Fatalf("fn %%%d: preds(%d) = %v, want %v", fn.ID(), b.Label, gotPreds, wantPreds)
		}
	}
	rpo := g.ReversePostOrder()
	if n := len(rpo); n != len(reach) || (n > 0 && rpo[0] != 0) {
		t.Fatalf("fn %%%d: rpo %v over %d reachable blocks", fn.ID(), rpo, len(reach))
	}
	dominates := make([][]bool, len(fn.Blocks))
	for ai, a := range fn.Blocks {
		without := reachWithout(fn, a.Label)
		dominates[ai] = make([]bool, len(fn.Blocks))
		for bi, b := range fn.Blocks {
			want := ai == bi || (reach[b.Label] && !without[b.Label])
			dominates[ai][bi] = want
			if got := dom.Dominates(ai, bi); got != want {
				t.Fatalf("fn %%%d: Dominates(%d, %d) = %v, want %v", fn.ID(), a.Label, b.Label, got, want)
			}
		}
	}
	// Definitions, straight from the module.
	scope := map[spirv.ID]bool{}
	for _, ins := range m.TypesGlobals {
		scope[ins.Result] = ins.Result != 0
	}
	for _, f := range m.Functions {
		scope[f.ID()] = true
	}
	for _, p := range fn.Params {
		scope[p.Result] = true
	}
	type site struct{ blk, pos int }
	defs := map[spirv.ID]site{}
	ids := []spirv.ID{0, m.Bound, m.Bound + 7}
	for id := range scope {
		ids = append(ids, id)
	}
	for bi, b := range fn.Blocks {
		defs[b.Label] = site{bi, -1}
		ids = append(ids, b.Label)
		pos := 0
		b.Instructions(func(ins *spirv.Instruction) {
			if ins == b.Merge || ins == b.Term {
				return
			}
			if ins.Result != 0 {
				defs[ins.Result] = site{bi, pos}
				ids = append(ids, ins.Result)
			}
			pos++
		})
	}
	for _, id := range ids {
		if got := info.ModuleScope(id); got != scope[id] {
			t.Fatalf("fn %%%d: ModuleScope(%d) = %v", fn.ID(), id, got)
		}
		d, local := defs[id]
		for bi, b := range fn.Blocks {
			// Availability can only change at the block's ends and around
			// the definition itself.
			positions := []int{0, len(b.Phis) + len(b.Body)}
			if local && d.blk == bi {
				positions = append(positions, d.pos, d.pos+1)
			}
			for _, pos := range positions {
				want := scope[id] || (local &&
					(d.blk == bi && d.pos >= 0 && d.pos < pos || d.blk != bi && dominates[d.blk][bi]))
				if got := info.AvailableAt(id, b.Label, pos); got != want {
					t.Fatalf("fn %%%d: AvailableAt(%d, %d, %d) = %v, want %v", fn.ID(), id, b.Label, pos, got, want)
				}
			}
		}
	}
}

func TestAnalysesMatchDefinitionsOnFuzzedCorpus(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, m := range fuzzedModules(t, seeds) {
		for _, fn := range m.Functions {
			checkAgainstDefinitions(t, m, fn)
		}
	}
}

// TestAnalysesMatchDefinitionsOnHandBuiltCFGs covers the shapes fuzzed
// modules rarely reach: unreachable blocks (alone and in cycles),
// self-loops, a loop back to the entry, a switch with duplicate targets and
// a branch to a label that is no block.
func TestAnalysesMatchDefinitionsOnHandBuiltCFGs(t *testing.T) {
	cases := map[string]*spirv.Function{
		"unreachable-cycle": fnOf(t, []spirv.ID{1, 2}, []spirv.ID{2}, []spirv.ID{7, 8}, []spirv.ID{8, 7}),
		"self-loop":         fnOf(t, []spirv.ID{1, 2}, []spirv.ID{2, 2, 3}, []spirv.ID{3}),
		"entry-loop":        fnOf(t, []spirv.ID{1, 2}, []spirv.ID{2, 1, 3}, []spirv.ID{3}),
		"dangling-target":   fnOf(t, []spirv.ID{1, 2, 40}, []spirv.ID{2}),
		"irreducible":       fnOf(t, []spirv.ID{1, 2, 3}, []spirv.ID{2, 3}, []spirv.ID{3, 2, 4}, []spirv.ID{4}),
		"single":            fnOf(t, []spirv.ID{1}),
	}
	sw := fnOf(t, []spirv.ID{1}, []spirv.ID{2, 4}, []spirv.ID{3, 4}, []spirv.ID{4})
	// OpSwitch %sel default=3, case 0 -> 2, case 1 -> 3, case 2 -> 2.
	sw.Blocks[0].Term = spirv.NewInstr(spirv.OpSwitch, 0, 0, 999, 3, 0, 2, 1, 3, 2, 2)
	cases["switch-duplicates"] = sw
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			m := spirv.NewModule()
			m.Bound = 128 // covers the labels and fnOf's function id
			m.Functions = []*spirv.Function{fn}
			checkAgainstDefinitions(t, m, fn)
		})
	}
	g := cfa.Build(sw)
	if got := g.Preds(1); !slices.Equal(got, []int32{0, 0}) {
		t.Fatalf("switch: preds of 2 = %v, want one per edge", got)
	}
}

// TestIDsPastTheTableCap pins the behaviour on modules past the SPIR-V id
// limit, which only unvalidated input reaches: the tables stay capped, ids
// past the cap are defined nowhere, and nothing panics.
func TestIDsPastTheTableCap(t *testing.T) {
	const huge = 1<<32 - 2
	f := fnOf(t, []spirv.ID{1, huge}, []spirv.ID{huge, 1})
	m := spirv.NewModule()
	m.Bound = 1<<32 - 1
	m.Functions = []*spirv.Function{f}
	info := cfa.Analyze(m, f)
	if info.G.Index(huge) != -1 || len(info.G.Preds(1)) != 0 || info.G.Reachable()[1] {
		t.Fatal("a label past the cap must get no edges")
	}
	if info.AvailableAt(huge, 1, 0) || info.AvailableAt(1, huge, 0) || info.ModuleScope(huge) {
		t.Fatal("ids past the cap are defined nowhere")
	}
	if !info.ModuleScope(100) {
		t.Fatal("the function id is at module scope")
	}
}
