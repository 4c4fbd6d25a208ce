package spirv_test

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/spirv"
)

// referenceEncodeWords is the straightforward encoder the pooled one must
// match word for word: every instruction, block labels and function ends
// included, materialised and emitted in module order.
func referenceEncodeWords(m *spirv.Module) []uint32 {
	words := []uint32{spirv.Magic, m.Version, spirv.Generator, uint32(m.Bound), 0}
	emit := func(ins *spirv.Instruction) {
		n := 1 + len(ins.Operands)
		if ins.Type != 0 {
			n++
		}
		if ins.Result != 0 {
			n++
		}
		words = append(words, uint32(n)<<16|uint32(ins.Op))
		if ins.Type != 0 {
			words = append(words, uint32(ins.Type))
		}
		if ins.Result != 0 {
			words = append(words, uint32(ins.Result))
		}
		words = append(words, ins.Operands...)
	}
	sections := [][]*spirv.Instruction{m.Capabilities}
	if m.MemoryModel != nil {
		sections = append(sections, []*spirv.Instruction{m.MemoryModel})
	}
	sections = append(sections, m.EntryPoints, m.ExecModes, m.Names, m.Decorations, m.TypesGlobals)
	for _, sec := range sections {
		for _, ins := range sec {
			emit(ins)
		}
	}
	for _, fn := range m.Functions {
		emit(fn.Def)
		for _, p := range fn.Params {
			emit(p)
		}
		for _, b := range fn.Blocks {
			emit(spirv.NewInstr(spirv.OpLabel, 0, b.Label))
			b.Instructions(emit)
		}
		emit(spirv.NewInstr(spirv.OpFunctionEnd, 0, 0))
	}
	return words
}

// fingerprintModules returns every corpus reference plus 50 fuzzed
// variants (donated functions, dead blocks, wrapped regions...).
func fingerprintModules(t *testing.T) map[string]*spirv.Module {
	t.Helper()
	refs := corpus.References()
	mods := make(map[string]*spirv.Module)
	for _, item := range refs {
		mods[item.Name] = item.Mod
	}
	donors := []*spirv.Module{refs[0].Mod, refs[1].Mod}
	transformed := 0
	for i := 0; i < 50; i++ {
		item := refs[i%len(refs)]
		res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{Seed: int64(5100 + i), Donors: donors})
		if err != nil {
			t.Fatalf("fuzz %s seed %d: %v", item.Name, 5100+i, err)
		}
		if len(res.Transformations) > 0 {
			transformed++
		}
		mods[fmt.Sprintf("%s/fuzz%d", item.Name, i)] = res.Variant
	}
	if transformed < 40 {
		t.Fatalf("only %d of 50 fuzzed variants differ from their reference", transformed)
	}
	return mods
}

// TestFingerprintIdentity pins the pooled encoder to the reference: the
// word stream is unchanged and the fingerprint is the SHA-256 of exactly
// the bytes EncodeBytes returns, so memo keys and blob hashes computed
// before and after stay interchangeable.
func TestFingerprintIdentity(t *testing.T) {
	for name, m := range fingerprintModules(t) {
		m = m.Clone() // an empty fingerprint cache
		if !slices.Equal(m.EncodeWords(), referenceEncodeWords(m)) {
			t.Fatalf("%s: EncodeWords differs from the reference encoder", name)
		}
		want := sha256.Sum256(m.EncodeBytes())
		if got := m.Fingerprint(); got != want {
			t.Fatalf("%s: Fingerprint %x, want sha256(EncodeBytes) %x", name, got, want)
		}
		if got := m.Fingerprint(); got != want { // served from the cache
			t.Fatalf("%s: cached Fingerprint %x, want %x", name, got, want)
		}
	}
}
