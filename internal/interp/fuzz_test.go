package interp_test

import (
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/spirv/validate"
	"spirvfuzz/internal/testmod"
)

// FuzzDecodeRender drives every module the decoder and validator accept
// through the runner's plan-cache fill (interp.Compile) and both renderers
// on a 2×2 grid. A malformed module must come back as an error, never a
// panic, and the scalar VM must agree with the tree walker: equal images,
// or faults with equal messages. (Lane widths are left to the differential
// tests: sweeping them here would cut the fuzzer's throughput several-fold
// on the step-budget-bound inputs it favours.)
func FuzzDecodeRender(f *testing.F) {
	for _, m := range testmod.All() {
		f.Add(m.EncodeBytes())
	}
	for _, item := range corpus.References() {
		f.Add(item.Mod.EncodeBytes())
	}
	in := interp.Inputs{W: 2, H: 2, Uniforms: corpus.StandardUniforms()}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := spirv.DecodeBytes(data)
		if err != nil || validate.Module(m) != nil {
			return
		}
		treeImg, treeErr := interp.RenderTree(m, in)
		prog, err := interp.Compile(m)
		if err == nil {
			var img *interp.Image
			img, err = prog.RenderParallel(in, 2)
			if err == nil && treeErr == nil && !treeImg.Equal(img) {
				t.Fatalf("images differ in %d pixels", treeImg.DiffCount(img))
			}
		}
		if (err == nil) != (treeErr == nil) || err != nil && err.Error() != treeErr.Error() {
			t.Fatalf("outcome mismatch: tree err %v, vm err %v", treeErr, err)
		}
	})
}
