package store

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzStoreOpen writes arbitrary bytes as blobs/pack and journal.jsonl and
// opens the store. Open may reject the input, but it must never panic or
// allocate far beyond the bytes on disk (a pack record's length field is
// checked against the file before anything is allocated), and every blob it
// indexes must read back hashing to its key.
func FuzzStoreOpen(f *testing.F) {
	seed := f.TempDir()
	s, err := Open(seed)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range []string{"", "a", "transformation sequence", "a"} {
		if _, err := s.PutBlob([]byte(b)); err != nil {
			f.Fatal(err)
		}
	}
	s.Journal().Append("c001", "campaign_created", map[string]int{"tests": 4})
	s.Journal().Append("c001", "campaign_done", nil)
	s.Close()
	pack, err := os.ReadFile(filepath.Join(seed, "blobs", "pack"))
	if err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(seed, "journal.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pack, journal)
	f.Add(pack[:len(pack)-3], journal[:len(journal)-5])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'}, []byte("NOT JSON\n{\"seq\":2}\n"))
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, pack, journal []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "blobs", "pack"), pack, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(dir)
		runtime.ReadMemStats(&after)
		// Fixed costs (the journal's 1 MiB read buffer, the pack's 64 KiB
		// one) plus a generous per-input-byte factor for index entries and
		// decoded journal records.
		limit := uint64(4<<20 + 32*(len(pack)+len(journal)))
		if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
			t.Fatalf("Open allocated %d bytes for %d input bytes", grew, len(pack)+len(journal))
		}
		if err != nil {
			return
		}
		defer s.Close()
		for key := range s.index {
			h := hex.EncodeToString(key[:])
			data, err := s.GetBlob(h)
			if err != nil {
				t.Fatalf("indexed blob %s: %v", h, err)
			}
			if sha256.Sum256(data) != key {
				t.Fatalf("blob %s hashes elsewhere", h)
			}
		}
	})
}
