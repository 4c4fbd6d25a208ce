package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestBlobRoundTripAndDedup(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := []byte("transformation sequence payload")
	h1, err := s.PutBlob(data)
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasBlob(h1) {
		t.Fatalf("HasBlob(%s) = false after Put", h1)
	}
	got, err := s.GetBlob(h1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("GetBlob = %q, want %q", got, data)
	}
	// Second put of identical content is a dedup hit, not a new blob.
	h2, err := s.PutBlob(append([]byte(nil), data...))
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("content address changed: %s vs %s", h1, h2)
	}
	st := s.Stats()
	if st.BlobsWritten != 1 || st.BlobDedupHits != 1 {
		t.Fatalf("stats = %+v, want 1 written / 1 dedup", st)
	}
	if st.BlobBytes != uint64(len(data)) {
		t.Fatalf("BlobBytes = %d, want %d", st.BlobBytes, len(data))
	}
	if s.HasBlob("deadbeef") { // malformed hash
		t.Fatal("HasBlob accepted malformed hash")
	}
	if _, err := s.GetBlob(strings.ToUpper(h1)); err == nil || strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("GetBlob of the uppercase hash: %v, want not found", err)
	}
	if _, err := s.GetBlob(HashBytes([]byte("absent"))); err == nil {
		t.Fatal("GetBlob of absent blob succeeded")
	}
}

func TestBlobConcurrentPut(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				data := []byte(fmt.Sprintf("blob-%d", i)) // shared across goroutines
				h, err := s.PutBlob(data)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := s.GetBlob(h)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("round trip %s: %v", h, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBlobsAcrossReopen puts 1000 blobs, then reopens the store: the new
// Store rebuilds its index from the pack, so re-putting half of them is a
// dedup hit, and every blob put before or after the reopen reads back.
func TestBlobsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	put := func(s *Store, from, to int) map[string][]byte {
		t.Helper()
		blobs := make(map[string][]byte)
		for i := from; i < to; i++ {
			data := []byte(fmt.Sprintf("blob-%d", i))
			h, err := s.PutBlob(data)
			if err != nil {
				t.Fatal(err)
			}
			blobs[h] = data
		}
		return blobs
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := put(s, 0, 1000)
	s.Close()

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	second := put(s, 500, 1500) // half already stored, half new
	if st := s.Stats(); st.BlobDedupHits != 500 || st.BlobsWritten != 500 {
		t.Fatalf("reopened stats = %+v, want 500 dedup / 500 written", st)
	}
	for _, blobs := range []map[string][]byte{first, second} {
		for h, data := range blobs {
			got, err := s.GetBlob(h)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("blob %s after reopen: %v", h, err)
			}
		}
	}
}

// TestPackCreatedByFirstPut pins lazy creation: Open leaves no pack behind,
// and the first put creates it.
func TestPackCreatedByFirstPut(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pack := filepath.Join(s.Root(), "blobs", "pack")
	if _, err := os.Stat(pack); !os.IsNotExist(err) {
		t.Fatalf("Open created the pack (stat err %v)", err)
	}
	if err := s.SaveCheckpoint("c", 1); err != nil { // syncs an absent pack
		t.Fatal(err)
	}
	if _, err := s.PutBlob([]byte("first")); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(pack)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(recordHeader + len("first")); info.Size() != want {
		t.Fatalf("pack is %d bytes after one put, want %d", info.Size(), want)
	}
}

// TestPackTornTail truncates the pack at every byte offset inside its last
// record, as a writer killed mid-put would leave it, and reopens: earlier
// blobs read back, the torn one is absent, and the next put appends cleanly
// and survives another reopen.
func TestPackTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for i := 0; i < 3; i++ {
		h, err := s.PutBlob([]byte(fmt.Sprintf("kept-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, h)
	}
	pack := filepath.Join(dir, "blobs", "pack")
	info, err := os.Stat(pack)
	if err != nil {
		t.Fatal(err)
	}
	lastOff := info.Size()
	torn := []byte("the record a killed writer was appending")
	tornHash, err := s.PutBlob(torn)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	whole, err := os.ReadFile(pack)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(whole)) != lastOff+recordHeader+int64(len(torn)) {
		t.Fatalf("pack is %d bytes, want %d", len(whole), lastOff+recordHeader+int64(len(torn)))
	}
	after := []byte("appended after the torn record")
	for cut := lastOff; cut < int64(len(whole)); cut++ {
		if err := os.WriteFile(pack, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		for reopen := 0; reopen < 2; reopen++ {
			s, err := Open(dir)
			if err != nil {
				t.Fatalf("cut %d: open: %v", cut, err)
			}
			for i, h := range kept {
				got, err := s.GetBlob(h)
				if err != nil || string(got) != fmt.Sprintf("kept-%d", i) {
					t.Fatalf("cut %d: kept blob %d: %q, %v", cut, i, got, err)
				}
			}
			if s.HasBlob(tornHash) {
				t.Fatalf("cut %d: torn blob indexed", cut)
			}
			if reopen == 0 {
				if info, err := os.Stat(pack); err != nil || info.Size() != lastOff {
					t.Fatalf("cut %d: torn tail not truncated (stat %v, %v)", cut, info, err)
				}
				if _, err := s.PutBlob(after); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.GetBlob(HashBytes(after))
			if err != nil || !bytes.Equal(got, after) {
				t.Fatalf("cut %d reopen %d: blob put after truncation: %q, %v", cut, reopen, got, err)
			}
			s.Close()
		}
	}
}

// TestBlobHammer runs overlapping puts, gets, has and stat queries from 8
// goroutines; under -race it checks the index and append locking.
func TestBlobHammer(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Goroutines share half their blobs with a neighbour.
				data := bytes.Repeat([]byte(fmt.Sprintf("hammer-%d-", (g/2)*1000+i)), 1+i%7)
				h := HashBytes(data)
				if size, ok := s.StatBlob(h); ok && size != int64(len(data)) {
					t.Errorf("StatBlob(%s) = %d, want %d", h, size, len(data))
					return
				}
				if got, err := s.PutBlob(data); err != nil || got != h {
					t.Errorf("PutBlob = %s, %v", got, err)
					return
				}
				if !s.HasBlob(h) {
					t.Errorf("HasBlob(%s) = false after put", h)
					return
				}
				if got, err := s.GetBlob(h); err != nil || !bytes.Equal(got, data) {
					t.Errorf("GetBlob(%s): %v", h, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.BlobsWritten != 4*200 || st.BlobsWritten+st.BlobDedupHits != 8*200 {
		t.Fatalf("stats = %+v, want 800 written of 1600 puts", st)
	}
}

// TestLegacyBlobsImported opens a store in the one-file-per-blob layout:
// each well-formed blob moves into the pack, stray temp files and blobs
// whose bytes do not match their name are dropped, and the old files and
// directories are gone.
func TestLegacyBlobsImported(t *testing.T) {
	dir := t.TempDir()
	legacy := func(name string, data []byte) string {
		t.Helper()
		fan := filepath.Join(dir, "blobs", name[:2])
		if err := os.MkdirAll(fan, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(fan, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return name
	}
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		data := []byte(fmt.Sprintf("legacy-%d", i))
		want[legacy(HashBytes(data), data)] = data
	}
	corrupt := legacy(HashBytes([]byte("original")), []byte("bit-rotted"))
	legacy(".blob-12345", []byte("half a put"))

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "pack" {
		t.Fatalf("blobs/ after import holds %d entries, want only the pack", len(entries))
	}
	if s.HasBlob(corrupt) {
		t.Fatal("corrupt legacy blob imported")
	}
	// A re-put of an imported blob is a dedup hit.
	if _, err := s.PutBlob([]byte("legacy-0")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.BlobDedupHits != 1 || st.BlobsWritten != 0 {
		t.Fatalf("stats = %+v, want the re-put deduped", st)
	}
	s.Close()

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for h, data := range want {
		got, err := s.GetBlob(h)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("imported blob %s: %q, %v", h, got, err)
		}
	}
}

func TestJournalAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type payload struct{ N int }
	for i := 0; i < 5; i++ {
		if _, err := s.Journal().Append("c1", "test_done", payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Reopen: sequence numbers continue, replay sees everything in order.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec, err := s2.Journal().Append("c1", "done", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 6 {
		t.Fatalf("resumed seq = %d, want 6", rec.Seq)
	}
	var seqs []uint64
	var types []string
	err = s2.Journal().Replay(func(r Record) error {
		seqs = append(seqs, r.Seq)
		types = append(types, r.Type)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 6 || seqs[0] != 1 || seqs[5] != 6 || types[5] != "done" {
		t.Fatalf("replay = %v / %v", seqs, types)
	}
}

func TestJournalTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Journal().Append("c1", "complete", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate a process killed mid-append: a half-written trailing record.
	path := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"type":"torn","da`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer s2.Close()
	var n int
	if err := s2.Journal().Replay(func(r Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records, want 1 (torn tail discarded)", n)
	}
	// The torn tail was truncated on open, so the next append starts on a
	// clean line boundary and the log replays completely.
	if _, err := s2.Journal().Append("c1", "after", nil); err != nil {
		t.Fatal(err)
	}
	var types []string
	if err := s2.Journal().Replay(func(r Record) error { types = append(types, r.Type); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(types) != 2 || types[0] != "complete" || types[1] != "after" {
		t.Fatalf("post-truncate replay = %v, want [complete after]", types)
	}
}

func TestJournalCorruptionMidFileIsError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Journal().Append("c1", "a", nil)
	s.Close()
	path := filepath.Join(dir, "journal.jsonl")
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString("NOT JSON\n")
	f.WriteString(`{"seq":3,"type":"b"}` + "\n")
	f.Close()
	if _, err := Open(dir); err == nil {
		t.Fatal("mid-file corruption not detected")
	}
}

func TestCheckpointAtomicReplace(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	type buckets struct{ Names []string }
	if ok, err := s.LoadCheckpoint("missing", &buckets{}); err != nil || ok {
		t.Fatalf("LoadCheckpoint(missing) = %v, %v", ok, err)
	}
	if err := s.SaveCheckpoint("c1-buckets", buckets{Names: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint("c1-buckets", buckets{Names: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	var got buckets
	ok, err := s.LoadCheckpoint("c1-buckets", &got)
	if err != nil || !ok {
		t.Fatalf("load: %v %v", ok, err)
	}
	if len(got.Names) != 2 || got.Names[1] != "b" {
		t.Fatalf("checkpoint = %+v, want latest version", got)
	}
	// No stray temp files once saves complete.
	entries, err := os.ReadDir(filepath.Join(s.Root(), "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoints dir has %d entries, want 1", len(entries))
	}
	if err := s.SaveCheckpoint("../escape", 1); err == nil {
		t.Fatal("path-traversal checkpoint name accepted")
	}
}
