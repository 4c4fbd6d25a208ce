package spirv

import (
	"crypto/sha256"
	"sync"
)

// Fingerprint returns the SHA-256 of the module's canonical binary encoding
// (EncodeBytes), computed lazily and cached in the module. The execution
// engine keys every cache layer on module content, and ddmin interestingness
// queries look the same original module up thousands of times per reduction;
// the cache turns those repeated full-module encode+hash walks into a pointer
// load.
//
// Invalidation contract: mutating the module through its own methods
// (FreshID, ReserveIDs, and everything built on them — the Ensure* family)
// clears the cache, and opt.Pipeline clears it around a pass run. Code that
// rewrites the IR structurally by hand (appending instructions, editing
// operands in place) after a fingerprint may have been taken must call
// InvalidateFingerprint itself. In practice modules are frozen once they
// reach the engine — originals are immutable, fuzzed variants are finished
// before classification, and replay materializes a fresh module per query —
// and Clone starts with an empty cache, so a stale fingerprint requires
// hand-mutating a module between engine runs, which nothing in the repo does.
//
// Concurrent Fingerprint calls are safe on a module that is no longer being
// mutated: racing computations store identical hashes.
func (m *Module) Fingerprint() [sha256.Size]byte {
	if p := m.fp.Load(); p != nil {
		return *p
	}
	b := encodePool.Get().(*encodeBuf)
	b.words = m.appendWords(b.words[:0])
	b.bytes = appendLE(b.bytes[:0], b.words)
	h := sha256.Sum256(b.bytes)
	encodePool.Put(b)
	m.fp.Store(&h)
	return h
}

// encodeBuf is Fingerprint's reusable encoding scratch: the word stream and
// its little-endian byte image, hashed exactly as EncodeBytes would return
// it.
type encodeBuf struct {
	words []uint32
	bytes []byte
}

var encodePool = sync.Pool{New: func() any { return new(encodeBuf) }}

// InvalidateFingerprint discards the cached fingerprint; the next
// Fingerprint call re-encodes and re-hashes the module.
func (m *Module) InvalidateFingerprint() {
	if m.fp.Load() != nil {
		m.fp.Store(nil)
	}
}
