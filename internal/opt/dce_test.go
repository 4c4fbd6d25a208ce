package opt_test

import (
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/opt"
	"spirvfuzz/internal/spirv"
)

// mapDCE is the map-based DCE the id-indexed one replaced, kept as the
// reference its output must match byte for byte.
func mapDCE() opt.Pass {
	return opt.Pass{Name: "dce", Run: func(m *spirv.Module) (bool, error) {
		changedAny := false
		for {
			uses := make(map[spirv.ID]int)
			m.ForEachInstruction(func(ins *spirv.Instruction) {
				switch ins.Op {
				case spirv.OpName, spirv.OpMemberName, spirv.OpDecorate, spirv.OpMemberDecorate:
					return
				}
				ins.Uses(func(id spirv.ID) { uses[id]++ })
			})
			changed := false
			for _, fn := range m.Functions {
				for _, b := range fn.Blocks {
					kept := b.Body[:0]
					for _, ins := range b.Body {
						if ins.Result != 0 && uses[ins.Result] == 0 && !ins.Op.HasSideEffects() && ins.Op != spirv.OpVariable {
							changed = true
							continue
						}
						kept = append(kept, ins)
					}
					b.Body = kept
					keptPhis := b.Phis[:0]
					for _, phi := range b.Phis {
						if uses[phi.Result] == 0 {
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
			exists := make(map[spirv.ID]bool)
			m.ForEachInstruction(func(ins *spirv.Instruction) {
				if ins.Result != 0 {
					exists[ins.Result] = true
				}
			})
			for _, fn := range m.Functions {
				for _, b := range fn.Blocks {
					exists[b.Label] = true
				}
			}
			filter := func(list []*spirv.Instruction) []*spirv.Instruction {
				kept := list[:0]
				for _, ins := range list {
					if exists[spirv.ID(ins.Operands[0])] {
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

// TestDCEMatchesMapReference compiles fuzzed corpus variants through the
// standard pipeline twice, once with the map-based DCE swapped in, and
// requires identical compiled fingerprints and change reports. DCE alone
// also runs on each unoptimized variant, where it has the most to remove.
func TestDCEMatchesMapReference(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	reference := opt.Standard()
	for i, p := range reference {
		if p.Name == "dce" {
			reference[i] = mapDCE()
		}
	}
	compiled, removed := 0, 0
	for _, item := range corpus.References() {
		for seed := range seeds {
			res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{Seed: seed, Donors: corpus.Donors(), EnableRecommendations: true})
			if err != nil {
				t.Fatal(err)
			}
			got, want := res.Variant.Clone(), res.Variant.Clone()
			gotChanged, _ := opt.DCE().Run(got)
			wantChanged, _ := mapDCE().Run(want)
			if gotChanged != wantChanged || got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("%s seed %d: DCE alone differs from the map reference", item.Name, seed)
			}
			if gotChanged {
				removed++
			}
			got, want = res.Variant.Clone(), res.Variant.Clone()
			if err := opt.Pipeline(got, opt.Standard(), 0); err != nil {
				t.Fatal(err)
			}
			if err := opt.Pipeline(want, reference, 0); err != nil {
				t.Fatal(err)
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("%s seed %d: compiled fingerprints differ", item.Name, seed)
			}
			compiled++
		}
	}
	if removed == 0 {
		t.Fatalf("DCE removed nothing from %d variants: the comparison is vacuous", compiled)
	}
}
