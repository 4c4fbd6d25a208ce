package runner

import (
	"crypto/sha256"
	"math"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/interp"
)

type uniforms = map[string]interp.Value

// TestUniformsHashIsContentKeyed: the hash depends on the map's content
// only — equal across clones, across separately built maps and across
// insertion orders.
func TestUniformsHashIsContentKeyed(t *testing.T) {
	std := corpus.StandardUniforms()
	h := uniformsHash(std)
	if h == ([sha256.Size]byte{}) {
		t.Fatal("the standard uniforms hash to the sentinel")
	}
	if got := uniformsHash(interp.Inputs{Uniforms: std}.Clone().Uniforms); got != h {
		t.Fatal("a clone hashes differently")
	}
	if got := uniformsHash(corpus.StandardUniforms()); got != h {
		t.Fatal("a second map with the same content hashes differently")
	}
	a := uniforms{}
	b := uniforms{}
	for _, name := range []string{"x", "y", "z", "w"} {
		a[name] = interp.IntVal(int32(len(name)))
	}
	for _, name := range []string{"w", "z", "y", "x"} {
		b[name] = interp.IntVal(int32(len(name)))
	}
	if uniformsHash(a) != uniformsHash(b) {
		t.Fatal("insertion order changed the hash")
	}
	if uniformsHash(nil) != uniformsHash(uniforms{}) {
		t.Fatal("nil and empty uniforms must agree")
	}
}

// TestUniformsHashSeparatesValues: each pair differs in exactly one of the
// ways a careless encoding conflates, and must hash apart.
func TestUniformsHashSeparatesValues(t *testing.T) {
	pairs := []struct {
		name string
		a, b uniforms
	}{
		{"-0 vs +0", uniforms{"u": interp.FloatVal(float32(math.Copysign(0, -1)))}, uniforms{"u": interp.FloatVal(0)}},
		{"int vs float, same bits", uniforms{"u": interp.UintVal(math.Float32bits(1.5))}, uniforms{"u": interp.FloatVal(1.5)}},
		{"bool vs int", uniforms{"u": interp.BoolVal(true)}, uniforms{"u": interp.IntVal(1)}},
		{"true vs false", uniforms{"u": interp.BoolVal(true)}, uniforms{"u": interp.BoolVal(false)}},
		{"composite length", uniforms{"u": interp.Composite(interp.IntVal(1))}, uniforms{"u": interp.Composite(interp.IntVal(1), interp.IntVal(0))}},
		{"composite nesting", uniforms{"u": interp.Composite(interp.Composite(interp.IntVal(1)), interp.IntVal(2))}, uniforms{"u": interp.Composite(interp.Composite(interp.IntVal(1), interp.IntVal(2)))}},
		{"empty composite vs none", uniforms{"u": interp.Composite()}, uniforms{}},
		{"name split", uniforms{"ab": interp.IntVal(0), "c": interp.IntVal(0)}, uniforms{"a": interp.IntVal(0), "bc": interp.IntVal(0)}},
		{"name vs value", uniforms{"u": interp.IntVal(1)}, uniforms{"v": interp.IntVal(1)}},
		{"value swap", uniforms{"u": interp.IntVal(1), "v": interp.IntVal(2)}, uniforms{"u": interp.IntVal(2), "v": interp.IntVal(1)}},
	}
	for _, p := range pairs {
		ha, hb := uniformsHash(p.a), uniformsHash(p.b)
		if ha == hb {
			t.Errorf("%s: hashes collide", p.name)
		}
		if ha == ([sha256.Size]byte{}) || hb == ([sha256.Size]byte{}) {
			t.Errorf("%s: an encodable map hashed to the sentinel", p.name)
		}
	}
}

// TestUniformsHashSentinel: a value no uniform can carry, at any depth,
// maps the whole map to the zero sentinel.
func TestUniformsHashSentinel(t *testing.T) {
	ptr := interp.Value{Kind: interp.KindPointer, Ptr: &interp.Pointer{Cell: &interp.Cell{V: interp.IntVal(1)}}}
	for name, u := range map[string]uniforms{
		"unset":           {"u": {}},
		"pointer":         {"u": ptr},
		"nested pointer":  {"a": interp.IntVal(1), "u": interp.Composite(interp.IntVal(2), ptr)},
		"unset after int": {"a": interp.IntVal(1), "b": {}},
	} {
		if uniformsHash(u) != ([sha256.Size]byte{}) {
			t.Errorf("%s: want the zero sentinel", name)
		}
	}
}

// TestUniformsHashAllocations: the standard uniforms hash without heap
// allocation, so a replayed query's key costs no garbage.
func TestUniformsHashAllocations(t *testing.T) {
	std := corpus.StandardUniforms()
	if n := testing.AllocsPerRun(100, func() { uniformsHash(std) }); n > 0 {
		t.Fatalf("uniformsHash allocates %.1f times per call", n)
	}
}
