package interp_test

// Differential tests pinning the compiled register VM to the tree-walking
// reference evaluator: for every module — canonical, corpus, fuzzed,
// optimizer-shaped or deliberately broken — both engines must produce
// byte-identical images, or faults with identical messages, at any worker
// count. This is the executable statement of the "two engines, one
// semantics" contract Render relies on.

import (
	"fmt"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/target"
	"spirvfuzz/internal/testmod"
)

// laneWidths are the lane-group widths every differential test sweeps; 1 is
// the degenerate group (pure lane machinery, no sharing), 16 is MaxLanes.
var laneWidths = []int{1, 4, 8, 16}

// assertEnginesAgree renders m under the tree walker, under the scalar VM at
// 1 and 4 workers, and under the lane VM at every lane width × worker count,
// requiring bitwise-equal images and string-equal faults throughout.
func assertEnginesAgree(t *testing.T, name string, m *spirv.Module, in interp.Inputs) {
	t.Helper()
	treeImg, treeErr := interp.RenderTree(m, in)
	prog, compileErr := interp.Compile(m)
	if compileErr != nil {
		// Compile rejects exactly the modules the tree walker rejects
		// before rendering the first pixel, with the same message.
		if treeErr == nil {
			t.Fatalf("%s: Compile failed (%v) but tree walker rendered fine", name, compileErr)
		}
		if treeErr.Error() != compileErr.Error() {
			t.Fatalf("%s: Compile error %q != tree error %q", name, compileErr, treeErr)
		}
		return
	}
	check := func(engine string, vmImg *interp.Image, vmErr error) {
		t.Helper()
		switch {
		case treeErr == nil && vmErr == nil:
			if !treeImg.Equal(vmImg) {
				t.Fatalf("%s: images differ under %s (%d pixels)\ntree:\n%svm:\n%s",
					name, engine, treeImg.DiffCount(vmImg), treeImg.ASCII(), vmImg.ASCII())
			}
		case treeErr != nil && vmErr != nil:
			if treeErr.Error() != vmErr.Error() {
				t.Fatalf("%s: fault mismatch under %s: tree %q, vm %q", name, engine, treeErr, vmErr)
			}
		default:
			t.Fatalf("%s: outcome mismatch under %s: tree err %v, vm err %v", name, engine, treeErr, vmErr)
		}
	}
	for _, workers := range []int{1, 4} {
		vmImg, vmErr := prog.RenderParallel(in, workers)
		check(fmt.Sprintf("vm/workers=%d", workers), vmImg, vmErr)
		for _, lanes := range laneWidths {
			laneImg, _, laneErr := prog.RenderParallelLanes(in, workers, lanes)
			check(fmt.Sprintf("lanes=%d/workers=%d", lanes, workers), laneImg, laneErr)
		}
	}
}

func TestVMDiffCanonicalModules(t *testing.T) {
	in := interp.Inputs{W: 8, H: 8, Uniforms: map[string]interp.Value{"scale": interp.FloatVal(0.5)}}
	for name, m := range testmod.All() {
		assertEnginesAgree(t, name, m, in)
	}
}

func TestVMDiffCorpusReferences(t *testing.T) {
	for _, item := range corpus.References() {
		assertEnginesAgree(t, item.Name, item.Mod, item.Inputs)
	}
}

// TestVMDiffFuzzedModules runs the fuzzer over every corpus reference with
// donors enabled, producing 60 structurally diverse variants (dead blocks,
// donated functions, obfuscated constants, wrapped regions...), and checks
// engine agreement on each.
func TestVMDiffFuzzedModules(t *testing.T) {
	refs := corpus.References()
	var donors []*spirv.Module
	for _, item := range refs[:3] {
		donors = append(donors, item.Mod)
	}
	const variants = 60
	for i := 0; i < variants; i++ {
		item := refs[i%len(refs)]
		res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{
			Seed:                  int64(7000 + i),
			Donors:                donors,
			EnableRecommendations: i%2 == 0,
		})
		if err != nil {
			t.Fatalf("fuzz %s seed %d: %v", item.Name, 7000+i, err)
		}
		assertEnginesAgree(t, item.Name, res.Variant, res.Inputs)
	}
}

// TestVMDiffOptimizedModules pushes corpus references and a few fuzzed
// variants through the shared optimizer pipeline, exercising the VM on
// optimizer-shaped control flow (merged blocks, folded constants).
func TestVMDiffOptimizedModules(t *testing.T) {
	for _, item := range corpus.References() {
		opt, err := target.SharedCompile(item.Mod, nil)
		if err != nil {
			t.Fatalf("SharedCompile %s: %v", item.Name, err)
		}
		assertEnginesAgree(t, item.Name+"/opt", opt, item.Inputs)
	}
	refs := corpus.References()
	for i := 0; i < 8; i++ {
		item := refs[i%len(refs)]
		res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{Seed: int64(9000 + i)})
		if err != nil {
			t.Fatalf("fuzz %s: %v", item.Name, err)
		}
		opt, err := target.SharedCompile(res.Variant, nil)
		if err != nil {
			t.Fatalf("SharedCompile fuzzed %s: %v", item.Name, err)
		}
		assertEnginesAgree(t, item.Name+"/fuzz+opt", opt, res.Inputs)
	}
}

// TestVMDiffFaultModules crafts modules that fault or discard in every way
// the interpreter knows, and checks the VM reproduces each fault verbatim
// (message and all) at 1 and 4 workers.
func TestVMDiffFaultModules(t *testing.T) {
	in := interp.Inputs{W: 8, H: 8}
	cases := map[string]*spirv.Module{}

	{ // Step-limit fault: a block branching to itself.
		m := testmod.Diamond()
		fn := m.EntryPointFunction()
		fn.Blocks[1].Term = spirv.NewInstr(spirv.OpBranch, 0, 0, uint32(fn.Blocks[1].Label))
		cases["step-limit"] = m
	}
	{ // OpUnreachable executed.
		m := testmod.Diamond()
		m.EntryPointFunction().Blocks[1].Term = spirv.NewInstr(spirv.OpUnreachable, 0, 0)
		cases["unreachable"] = m
	}
	{ // Block with no terminator at all.
		m := testmod.Diamond()
		m.EntryPointFunction().Blocks[1].Term = nil
		cases["no-terminator"] = m
	}
	{ // Branch to a block that does not exist.
		m := testmod.Diamond()
		m.EntryPointFunction().Blocks[1].Term = spirv.NewInstr(spirv.OpBranch, 0, 0, 9999)
		cases["missing-block"] = m
	}
	{ // ϕ whose incoming predecessors never match the actual edge.
		m := testmod.Diamond()
		phi := m.EntryPointFunction().Blocks[3].Phis[0]
		phi.Operands[1], phi.Operands[3] = 9999, 9999
		cases["phi-missing-pred"] = m
	}
	{ // ϕ in the entry block, which has no predecessors.
		m := testmod.Diamond()
		fn := m.EntryPointFunction()
		fn.Blocks[0].Phis = append(fn.Blocks[0].Phis, fn.Blocks[3].Phis...)
		cases["entry-phi"] = m
	}
	{ // Read of an id with no definition anywhere.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		one := b.Mod.EnsureConstantFloat(1)
		v := b.Emit(spirv.OpFAdd, s.Float, spirv.ID(9990), spirv.ID(9990))
		col := b.Emit(spirv.OpCompositeConstruct, s.Vec4, v, v, v, one)
		b.Store(s.Color, col)
		b.FinishFragmentShell(s)
		cases["undefined-id"] = b.Mod
	}
	{ // Call to a function that does not exist.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		one := b.Mod.EnsureConstantFloat(1)
		v := b.Emit(spirv.OpFunctionCall, s.Float, spirv.ID(9999))
		col := b.Emit(spirv.OpCompositeConstruct, s.Vec4, v, v, v, one)
		b.Store(s.Color, col)
		b.FinishFragmentShell(s)
		cases["missing-function"] = b.Mod
	}
	{ // Call with the wrong number of arguments.
		m := testmod.Caller()
		for _, blk := range m.EntryPointFunction().Blocks {
			for _, ins := range blk.Body {
				if ins.Op == spirv.OpFunctionCall {
					ins.Operands = ins.Operands[:1] // drop the argument
				}
			}
		}
		cases["bad-arity"] = m
	}
	{ // OpSwitch on a float selector.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		selC := m.EnsureConstantFloat(1.5)
		one := m.EnsureConstantFloat(1)
		def, merge := b.NewLabel(), b.NewLabel()
		b.SelectionMerge(merge)
		b.Blk.Term = spirv.NewInstr(spirv.OpSwitch, 0, 0, uint32(selC), uint32(def))
		b.Blk = nil
		b.Begin(def)
		b.Branch(merge)
		b.Begin(merge)
		col := m.EnsureConstantComposite(s.Vec4, one, one, one, one)
		colv := b.Emit(spirv.OpCopyObject, s.Vec4, col)
		b.Store(s.Color, colv)
		b.FinishFragmentShell(s)
		cases["switch-float-selector"] = m
	}
	{ // Unbounded recursion: exceeds the call-depth limit.
		m := testmod.Caller()
		var helper *spirv.Function
		for _, fn := range m.Functions {
			if fn != m.EntryPointFunction() {
				helper = fn
			}
		}
		// Rewrite the helper body to call itself.
		callee := helper.ID()
		body := helper.Blocks[0].Body
		for _, ins := range body {
			if ins.Op == spirv.OpFAdd {
				ins.Op = spirv.OpFunctionCall
				ins.Operands = []uint32{uint32(callee), uint32(helper.Params[0].Result)}
			}
		}
		cases["call-depth"] = m
	}

	for name, m := range cases {
		assertEnginesAgree(t, name, m, in)
	}
}

// TestVMDiffKillParallel pins the discard path specifically: killed
// fragments must leave identical transparent holes under row-parallel
// rendering.
func TestVMDiffKillParallel(t *testing.T) {
	m := testmod.KillHalf()
	prog, err := interp.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	in := interp.Inputs{W: 16, H: 16}
	ref, err := interp.RenderTree(m, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 16, 64} {
		img, err := prog.RenderParallel(in, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !ref.Equal(img) {
			t.Fatalf("workers=%d: image differs from tree reference", workers)
		}
		for _, lanes := range laneWidths {
			img, _, err := prog.RenderParallelLanes(in, workers, lanes)
			if err != nil {
				t.Fatalf("lanes=%d workers=%d: %v", lanes, workers, err)
			}
			if !ref.Equal(img) {
				t.Fatalf("lanes=%d workers=%d: image differs from tree reference", lanes, workers)
			}
		}
	}
}

// TestVMDiffFirstFaultWins pins the parallel renderer's fault selection:
// when several rows fault, the reported fault must be the one the serial
// scan order hits first, so error messages are worker-count independent.
func TestVMDiffFirstFaultWins(t *testing.T) {
	// Faults on the right half of every row: pixel (4,0) faults first in
	// scan order regardless of which band's goroutine finishes first.
	b := spirv.NewBuilder()
	s := b.BeginFragmentShell()
	m := b.Mod
	half := m.EnsureConstantFloat(0.5)
	one := m.EnsureConstantFloat(1)
	c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
	x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
	cond := b.Emit(spirv.OpFOrdLessThan, s.Bool, x, half)
	bad, ok := b.NewLabel(), b.NewLabel()
	b.SelectionMerge(ok)
	b.BranchCond(cond, ok, bad)
	b.Begin(bad)
	b.Blk.Term = spirv.NewInstr(spirv.OpUnreachable, 0, 0)
	b.Blk = nil
	b.Begin(ok)
	col := m.EnsureConstantComposite(s.Vec4, one, one, one, one)
	colv := b.Emit(spirv.OpCopyObject, s.Vec4, col)
	b.Store(s.Color, colv)
	b.FinishFragmentShell(s)

	in := interp.Inputs{W: 8, H: 8}
	_, treeErr := interp.RenderTree(m, in)
	if treeErr == nil {
		t.Fatal("expected a fault")
	}
	prog, err := interp.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		_, vmErr := prog.RenderParallel(in, workers)
		if vmErr == nil || vmErr.Error() != treeErr.Error() {
			t.Fatalf("workers=%d: fault %v, want %v", workers, vmErr, treeErr)
		}
		for _, lanes := range laneWidths {
			_, _, laneErr := prog.RenderParallelLanes(in, workers, lanes)
			if laneErr == nil || laneErr.Error() != treeErr.Error() {
				t.Fatalf("lanes=%d workers=%d: fault %v, want %v", lanes, workers, laneErr, treeErr)
			}
		}
	}
}

// storeModules crafts modules whose OpStores exercise every path of the
// VMs' in-place store: a whole-composite overwrite of a same-shaped cell, a
// store through an access chain into a struct member, stores that change the
// shape of the destination (the Clone fallback), and stores of values loaded
// from the destination cell itself. Every image depends on the pixel
// coordinate, so a store leaking state across pixels or lanes shows.
func storeModules() map[string]*spirv.Module {
	cases := map[string]*spirv.Module{}
	{ // Whole-composite stores into a local vec4: a constant, a computed
		// value, then a value derived from a load of the cell.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		zero, one := m.EnsureConstantFloat(0), m.EnsureConstantFloat(1)
		local := b.LocalVariable(s.Vec4)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		y := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 1)
		b.Store(local, m.EnsureConstantComposite(s.Vec4, zero, zero, zero, one))
		v1 := b.Emit(spirv.OpCompositeConstruct, s.Vec4, x, y, zero, one)
		b.Store(local, v1)
		v2 := b.Emit(spirv.OpLoad, s.Vec4, local)
		v3 := b.Emit(spirv.OpFAdd, s.Vec4, v2, v1)
		b.Store(local, v3)
		b.Store(s.Color, b.Emit(spirv.OpLoad, s.Vec4, local))
		b.FinishFragmentShell(s)
		cases["store-whole-composite"] = m
	}
	{ // Stores through access chains into members of a local struct
		// { float; vec4; float[3] }, then a whole-struct copy.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		one := m.EnsureConstantFloat(1)
		i0, i1, i2 := m.EnsureConstantInt(0), m.EnsureConstantInt(1), m.EnsureConstantInt(2)
		arr := m.EnsureTypeArray(s.Float, m.EnsureConstantInt(3))
		st := m.EnsureTypeStruct(s.Float, s.Vec4, arr)
		ptrF := m.EnsureTypePointer(spirv.StorageFunction, s.Float)
		ptrV4 := m.EnsureTypePointer(spirv.StorageFunction, s.Vec4)
		src, dst := b.LocalVariable(st), b.LocalVariable(st)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		y := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 1)
		b.Store(b.AccessChain(ptrF, src, i0), x)
		b.Store(b.AccessChain(ptrV4, src, i1), b.Emit(spirv.OpCompositeConstruct, s.Vec4, y, x, y, one))
		b.Store(b.AccessChain(ptrF, src, i2, i1), y)
		b.Store(b.AccessChain(ptrF, src, i1, i2), b.Emit(spirv.OpLoad, s.Float, b.AccessChain(ptrF, src, i2, i1)))
		b.Store(dst, b.Emit(spirv.OpLoad, st, src))
		b.Store(b.AccessChain(ptrF, src, i1, i0), one) // must not reach dst
		v := b.Emit(spirv.OpLoad, s.Vec4, b.AccessChain(ptrV4, dst, i1))
		w := b.Emit(spirv.OpLoad, s.Float, b.AccessChain(ptrF, dst, i0))
		b.Store(s.Color, b.Emit(spirv.OpVectorTimesScalar, s.Vec4, v, w))
		b.FinishFragmentShell(s)
		cases["store-struct-member"] = m
	}
	{ // Shape-changing stores: the vec4 output cell first receives a
		// vec2, then a scalar on the left half of the image, or a vec4
		// whose second component then receives a vec2 on the right half.
		// The in-place store and the next pixel's color reset must both
		// fall back to a fresh copy.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		half, one := m.EnsureConstantFloat(0.5), m.EnsureConstantFloat(1)
		ptrF := m.EnsureTypePointer(spirv.StorageOutput, s.Float)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		b.Store(s.Color, c)
		left, right, merge := b.NewLabel(), b.NewLabel(), b.NewLabel()
		b.SelectionMerge(merge)
		b.BranchCond(b.Emit(spirv.OpFOrdLessThan, s.Bool, x, half), left, right)
		b.Begin(left)
		b.Store(s.Color, x)
		b.Branch(merge)
		b.Begin(right)
		b.Store(s.Color, b.Emit(spirv.OpCompositeConstruct, s.Vec4, x, x, half, one))
		b.Store(b.AccessChain(ptrF, s.Color, m.EnsureConstantInt(1)), c)
		b.Branch(merge)
		b.Begin(merge)
		b.FinishFragmentShell(s)
		cases["store-shape-change"] = m
	}
	{ // Self-stores: a value loaded from a cell written back to the same
		// cell, and an array element copied onto its sibling. A snapshot
		// loaded before the cell is overwritten in place must keep its old
		// contents.
		b := spirv.NewBuilder()
		s := b.BeginFragmentShell()
		m := b.Mod
		zero, one := m.EnsureConstantFloat(0), m.EnsureConstantFloat(1)
		i0, i1 := m.EnsureConstantInt(0), m.EnsureConstantInt(1)
		arr := m.EnsureTypeArray(s.Vec4, m.EnsureConstantInt(2))
		ptrV4 := m.EnsureTypePointer(spirv.StoragePrivate, s.Vec4)
		g := b.GlobalVariable("pair", spirv.StoragePrivate, arr, 0)
		c := b.Emit(spirv.OpLoad, s.Vec2, s.Coord)
		x := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 0)
		y := b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(c), 1)
		p0, p1 := b.AccessChain(ptrV4, g, i0), b.AccessChain(ptrV4, g, i1)
		b.Store(p0, b.Emit(spirv.OpCompositeConstruct, s.Vec4, x, y, zero, one))
		b.Store(p1, b.Emit(spirv.OpCompositeConstruct, s.Vec4, y, x, one, one))
		snap := b.Emit(spirv.OpLoad, arr, g)
		b.Store(g, snap)
		b.Store(p1, b.Emit(spirv.OpLoad, s.Vec4, p0))
		b.Store(p0, b.Emit(spirv.OpCompositeConstruct, s.Vec4, one, one, one, one))
		v := b.Emit(spirv.OpLoad, s.Vec4, p1)
		col := b.Emit(spirv.OpCompositeConstruct, s.Vec4,
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(v), 0),
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(v), 1),
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(snap), 1, 0),
			b.EmitWords(spirv.OpCompositeExtract, s.Float, uint32(snap), 1, 2))
		b.Store(s.Color, col)
		b.Store(s.Color, b.Emit(spirv.OpLoad, s.Vec4, s.Color))
		b.FinishFragmentShell(s)
		cases["store-self"] = m
	}
	return cases
}

// TestVMDiffInPlaceStores pins the VMs' in-place OpStore to the
// tree-walker's replace-with-clone semantics at every worker count and lane
// width.
func TestVMDiffInPlaceStores(t *testing.T) {
	in := interp.Inputs{W: 8, H: 64}
	for name, m := range storeModules() {
		ref, err := interp.RenderTree(m, in)
		if err != nil {
			t.Fatalf("%s: tree walker: %v", name, err)
		}
		prog, err := interp.Compile(m)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		for _, workers := range []int{1, 2, 4, 8, 16, 64} {
			img, err := prog.RenderParallel(in, workers)
			if err != nil || !ref.Equal(img) {
				t.Fatalf("%s workers=%d: image differs from tree reference (err %v)", name, workers, err)
			}
			for _, lanes := range laneWidths {
				img, _, err := prog.RenderParallelLanes(in, workers, lanes)
				if err != nil || !ref.Equal(img) {
					t.Fatalf("%s lanes=%d workers=%d: image differs from tree reference (err %v)", name, lanes, workers, err)
				}
			}
		}
	}
}
