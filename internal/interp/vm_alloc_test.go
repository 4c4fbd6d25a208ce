package interp_test

import (
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/interp"
)

// maxRenderBytes bounds what one 8×8 render may allocate. A machine's
// per-render state (cells, frames, the image) is a few KiB; the element
// arena must grow with the shader's per-pixel composite demand rather than
// start at a fixed multi-thousand-value chunk.
const maxRenderBytes = 32 << 10

// TestRenderAllocBound renders a composite-heavy corpus reference (matrix1:
// matrix and vector arithmetic on every pixel) on an 8×8 grid and
// bounds the bytes allocated per render.
func TestRenderAllocBound(t *testing.T) {
	var item *corpus.Item
	for _, it := range corpus.References() {
		if it.Name == "matrix1" {
			item = &it
		}
	}
	if item == nil {
		t.Fatal("corpus reference matrix1 not found")
	}
	prog, err := interp.Compile(item.Mod)
	if err != nil {
		t.Fatal(err)
	}
	in := item.Inputs
	in.W, in.H = 8, 8
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prog.Render(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > maxRenderBytes {
		t.Fatalf("8x8 render of %s allocates %d B/op, want <= %d", item.Name, got, maxRenderBytes)
	}
}
