// Package store is the durable state layer behind the spirvd campaign
// daemon: a content-addressed blob store for campaign artifacts (module
// binaries, transformation sequences, reduced bug reports), a write-ahead
// journal of campaign events, and atomically-replaced checkpoint files.
//
// Everything the pipeline produces is deterministic, so durability is
// expressed as content addressing plus an event log: artifacts are keyed by
// the SHA-256 of their bytes (identical artifacts from different campaigns
// or from a re-run of the same campaign occupy one blob), and the journal
// records which pipeline steps completed, referencing artifacts by hash. A
// daemon killed at any point — including SIGKILL mid-write — reopens the
// store, replays the journal, and resumes without re-running completed work;
// a torn trailing journal record or blob record is discarded (its step
// simply re-runs).
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Store is an on-disk campaign store rooted at one directory:
//
//	root/
//	  blobs/pack                content-addressed artifacts, one append-only file
//	  journal.jsonl             append-only campaign event log
//	  checkpoints/<name>.json   atomically-replaced derived state
//
// A blob is one pack record: its length as a little-endian u32, then its
// bytes. The index from SHA-256 to record lives in memory and is rebuilt by
// scanning the pack at Open. Like the journal, a store directory assumes a
// single opener. Store is safe for concurrent use.
type Store struct {
	root    string
	journal *Journal

	// mu guards index and pack. pack is nil until the first put creates
	// blobs/pack (or Open found one).
	mu    sync.RWMutex
	index map[[sha256.Size]byte]blobLoc
	pack  *os.File

	// appendMu serializes appends; it guards end and buf.
	appendMu sync.Mutex
	end      int64  // offset of the next record
	buf      []byte // header + payload of the record being appended

	blobsWritten atomic.Uint64
	blobBytes    atomic.Uint64
	blobDedup    atomic.Uint64
	checkpoints  atomic.Uint64

	syncHasQueries atomic.Uint64
	syncBlobsIn    atomic.Uint64
	syncBytesIn    atomic.Uint64
	syncBlobsOut   atomic.Uint64
	syncBytesOut   atomic.Uint64
}

// blobLoc is where a blob's bytes sit in the pack.
type blobLoc struct {
	off int64 // of the payload, past the record header
	n   uint32
}

// recordHeader is the size of a pack record's length prefix.
const recordHeader = 4

// Stats is a point-in-time snapshot of store counters, following the
// internal/runner Stats pattern.
type Stats struct {
	BlobsWritten   uint64 `json:"blobs_written"` // new blobs materialized on disk
	BlobBytes      uint64 `json:"blob_bytes"`    // bytes of those blobs
	BlobDedupHits  uint64 `json:"blob_dedup_hits"`
	JournalRecords uint64 `json:"journal_records"` // records appended this process
	Checkpoints    uint64 `json:"checkpoints"`     // checkpoint saves this process

	// Blob-sync protocol traffic (HasBatch/PutBatch/GetBatch), the
	// store-side view of cluster transfers.
	SyncHasQueries uint64 `json:"sync_has_queries"` // hashes probed via HasBatch
	SyncBlobsIn    uint64 `json:"sync_blobs_in"`    // blobs received via PutBatch
	SyncBytesIn    uint64 `json:"sync_bytes_in"`
	SyncBlobsOut   uint64 `json:"sync_blobs_out"` // blobs served via GetBatch
	SyncBytesOut   uint64 `json:"sync_bytes_out"`
}

// Open opens (creating if needed) a store rooted at dir. It rebuilds the
// blob index from blobs/pack, truncating a torn trailing record, and moves
// any blobs found in the older one-file-per-blob layout (blobs/ab/abcdef…)
// into the pack. Open does not create the pack: the first put does.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{root: dir, index: make(map[[sha256.Size]byte]blobLoc)}
	// A blobs directory made by this call holds neither a pack nor older
	// blobs, so a fresh store skips the scan and the import.
	if err := os.Mkdir(filepath.Join(dir, "blobs"), 0o755); errors.Is(err, fs.ErrExist) {
		err = s.openPack()
		if err == nil {
			err = s.importLegacy()
		}
		if err != nil {
			s.closePack()
			return nil, err
		}
	} else if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	j, err := openJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		s.closePack()
		return nil, err
	}
	s.journal = j
	return s, nil
}

// Close releases the pack and journal file handles.
func (s *Store) Close() error {
	perr := s.closePack()
	if err := s.journal.Close(); err != nil {
		return err
	}
	return perr
}

func (s *Store) closePack() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pack == nil {
		return nil
	}
	return s.pack.Close()
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Journal returns the store's write-ahead journal.
func (s *Store) Journal() *Journal { return s.journal }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		BlobsWritten:   s.blobsWritten.Load(),
		BlobBytes:      s.blobBytes.Load(),
		BlobDedupHits:  s.blobDedup.Load(),
		JournalRecords: s.journal.appended.Load(),
		Checkpoints:    s.checkpoints.Load(),
		SyncHasQueries: s.syncHasQueries.Load(),
		SyncBlobsIn:    s.syncBlobsIn.Load(),
		SyncBytesIn:    s.syncBytesIn.Load(),
		SyncBlobsOut:   s.syncBlobsOut.Load(),
		SyncBytesOut:   s.syncBytesOut.Load(),
	}
}

// HashBytes returns the store's content address for data: lowercase SHA-256
// hex.
func HashBytes(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// parseHash decodes a content address, lowercase hex as HashBytes writes
// it, into an index key.
func parseHash(hash string) (key [sha256.Size]byte, ok bool) {
	if len(hash) != 2*sha256.Size || strings.ToLower(hash) != hash {
		return key, false
	}
	_, err := hex.Decode(key[:], []byte(hash))
	return key, err == nil
}

// lookup returns a blob's pack location and the pack holding it.
func (s *Store) lookup(hash string) (blobLoc, *os.File, bool) {
	key, ok := parseHash(hash)
	if !ok {
		return blobLoc{}, nil, false
	}
	s.mu.RLock()
	loc, ok := s.index[key]
	pack := s.pack
	s.mu.RUnlock()
	return loc, pack, ok
}

// openPack opens an existing blobs/pack and indexes its records. Each record
// is hashed, so the index never trusts bytes it has not checked. A trailing
// record whose header or payload runs past the end of the file — a writer
// killed mid-put — is truncated away, the same way the journal handles a
// torn tail.
func (s *Store) openPack() error {
	f, err := os.OpenFile(filepath.Join(s.root, "blobs", "pack"), os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: pack: %w", err)
	}
	s.pack = f
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: pack: %w", err)
	}
	size := info.Size()
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [recordHeader]byte
	var payload []byte
	var off int64
	for size-off >= recordHeader {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return fmt.Errorf("store: pack: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if int64(n) > size-off-recordHeader {
			break // torn: the payload was never fully written
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return fmt.Errorf("store: pack: %w", err)
		}
		key := sha256.Sum256(payload)
		if _, dup := s.index[key]; !dup {
			s.index[key] = blobLoc{off: off + recordHeader, n: n}
		}
		off += recordHeader + int64(n)
	}
	if off < size {
		if err := f.Truncate(off); err != nil {
			return fmt.Errorf("store: pack: truncate torn tail: %w", err)
		}
	}
	s.end = off
	return nil
}

// importLegacy moves blobs from the one-file-per-blob layout into the pack,
// so a store written before the pack existed still resumes. Each file is
// hash-checked: a blob whose bytes do not match its name was unreadable
// before and is dropped. The pack is synced before any file is removed.
func (s *Store) importLegacy() error {
	blobs := filepath.Join(s.root, "blobs")
	entries, err := os.ReadDir(blobs)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var remove []string
	for _, fan := range entries {
		if !fan.IsDir() || len(fan.Name()) != 2 {
			continue
		}
		dir := filepath.Join(blobs, fan.Name())
		files, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, file := range files {
			path := filepath.Join(dir, file.Name())
			remove = append(remove, path)
			key, ok := parseHash(file.Name())
			if !ok {
				continue // a stray temp file from a killed put
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return fmt.Errorf("store: import %s: %w", path, err)
			}
			if sha256.Sum256(data) != key {
				continue
			}
			if _, err := s.put(key, data); err != nil {
				return err
			}
		}
		remove = append(remove, dir)
	}
	if len(remove) == 0 {
		return nil
	}
	if err := s.syncPack(); err != nil {
		return err
	}
	for _, path := range remove { // files before their directory
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("store: import: %w", err)
		}
	}
	return nil
}

// PutBlob stores data under its content address and returns the hash. An
// existing blob with the same content is reused (a dedup hit), which is what
// makes re-submitted campaigns and restarted daemons idempotent: writing the
// same artifact twice is a no-op.
func (s *Store) PutBlob(data []byte) (string, error) {
	key := sha256.Sum256(data)
	written, err := s.put(key, data)
	if err != nil {
		return "", err
	}
	if written {
		s.blobsWritten.Add(1)
		s.blobBytes.Add(uint64(len(data)))
	} else {
		s.blobDedup.Add(1)
	}
	return hex.EncodeToString(key[:]), nil
}

// put appends data, whose SHA-256 is key, to the pack unless key is
// indexed, reporting whether it wrote. The record goes out in one write at
// the tracked end of the pack, so a killed writer tears at most the last
// record.
func (s *Store) put(key [sha256.Size]byte, data []byte) (bool, error) {
	if uint64(len(data)) > math.MaxUint32 {
		return false, fmt.Errorf("store: blob of %d bytes exceeds the pack record limit", len(data))
	}
	s.mu.RLock()
	_, ok := s.index[key]
	s.mu.RUnlock()
	if ok {
		return false, nil
	}
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	s.mu.RLock()
	_, ok = s.index[key] // a racing put of the same bytes may have won
	pack := s.pack
	s.mu.RUnlock()
	if ok {
		return false, nil
	}
	if pack == nil {
		f, err := os.OpenFile(filepath.Join(s.root, "blobs", "pack"), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return false, fmt.Errorf("store: pack: %w", err)
		}
		s.mu.Lock()
		s.pack = f
		s.mu.Unlock()
		pack = f
	}
	s.buf = binary.LittleEndian.AppendUint32(s.buf[:0], uint32(len(data)))
	s.buf = append(s.buf, data...)
	if _, err := pack.WriteAt(s.buf, s.end); err != nil {
		pack.Truncate(s.end) // best effort: drop a partial record now, not at the next Open
		return false, fmt.Errorf("store: pack: %w", err)
	}
	s.mu.Lock()
	s.index[key] = blobLoc{off: s.end + recordHeader, n: uint32(len(data))}
	s.mu.Unlock()
	s.end += int64(len(s.buf))
	return true, nil
}

// syncPack flushes blob writes to stable storage.
func (s *Store) syncPack() error {
	s.mu.RLock()
	pack := s.pack
	s.mu.RUnlock()
	if pack == nil {
		return nil
	}
	if err := pack.Sync(); err != nil {
		return fmt.Errorf("store: pack: %w", err)
	}
	return nil
}

// GetBlob returns the blob stored under hash. Its bytes are re-hashed on
// every read, so on-disk corruption surfaces as an error, never as data.
func (s *Store) GetBlob(hash string) ([]byte, error) {
	loc, pack, ok := s.lookup(hash)
	if !ok {
		return nil, fmt.Errorf("store: blob %q: %w", hash, os.ErrNotExist)
	}
	data := make([]byte, loc.n)
	if _, err := pack.ReadAt(data, loc.off); err != nil {
		return nil, fmt.Errorf("store: blob %s: %w", hash, err)
	}
	if got := HashBytes(data); got != hash {
		return nil, fmt.Errorf("store: blob %s corrupted (content hashes to %s)", hash, got)
	}
	return data, nil
}

// HasBlob reports whether a blob is stored under hash.
func (s *Store) HasBlob(hash string) bool {
	_, _, ok := s.lookup(hash)
	return ok
}
