// The race detector makes sync.Pool drop items at random, so allocation
// counts are only meaningful without it.

//go:build !race

package spirv_test

import (
	"testing"

	"spirvfuzz/internal/corpus"
)

// TestFingerprintAllocs bounds a recomputed fingerprint to the one
// allocation that publishes the cached hash: the encoding itself reuses
// pooled buffers.
func TestFingerprintAllocs(t *testing.T) {
	m := corpus.References()[0].Mod.Clone()
	m.Fingerprint() // warm the pool
	allocs := testing.AllocsPerRun(100, func() {
		m.InvalidateFingerprint()
		m.Fingerprint()
	})
	if allocs > 1 {
		t.Fatalf("Fingerprint allocates %.1f times per call, want <= 1", allocs)
	}
}
