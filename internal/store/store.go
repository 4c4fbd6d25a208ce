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
// a torn trailing journal record is discarded (its step simply re-runs).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
)

// Store is an on-disk campaign store rooted at one directory:
//
//	root/
//	  blobs/ab/abcdef...        content-addressed artifacts (SHA-256 hex)
//	  journal.jsonl             append-only campaign event log
//	  checkpoints/<name>.json   atomically-replaced derived state
//
// Store is safe for concurrent use.
type Store struct {
	root    string
	journal *Journal

	// fanout marks the blobs/xx directories this Store has created or found,
	// indexed by the hash's leading byte, so only the first put into each
	// directory pays for a MkdirAll.
	fanout [256]atomic.Bool

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

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"", "blobs", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	j, err := openJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	return &Store{root: dir, journal: j}, nil
}

// Close releases the journal file handle.
func (s *Store) Close() error { return s.journal.Close() }

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

// blobPath maps a hash to its on-disk location, fanned out over 256
// two-hex-digit directories so no single directory grows unbounded.
func (s *Store) blobPath(hash string) (string, error) {
	if len(hash) != 2*sha256.Size {
		return "", fmt.Errorf("store: malformed blob hash %q", hash)
	}
	if _, err := hex.DecodeString(hash); err != nil {
		return "", fmt.Errorf("store: malformed blob hash %q", hash)
	}
	return filepath.Join(s.root, "blobs", hash[:2], hash), nil
}

// PutBlob stores data under its content address and returns the hash. An
// existing blob with the same content is reused (a dedup hit), which is what
// makes re-submitted campaigns and restarted daemons idempotent: writing the
// same artifact twice is a no-op.
func (s *Store) PutBlob(data []byte) (string, error) {
	hash := HashBytes(data)
	path, err := s.blobPath(hash)
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(path); err == nil {
		s.blobDedup.Add(1)
		return hash, nil
	}
	if err := s.ensureFanout(hash, filepath.Dir(path)); err != nil {
		return "", err
	}
	// Write-temp-then-rename: a crash mid-write leaves a stray temp file,
	// never a truncated blob under a valid content address.
	tmp, err := os.CreateTemp(filepath.Dir(path), ".blob-*")
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("store: %w", err)
	}
	s.blobsWritten.Add(1)
	s.blobBytes.Add(uint64(len(data)))
	return hash, nil
}

// ensureFanout creates dir, the fan-out directory of a well-formed hash,
// unless this Store already has. Racing first puts both call MkdirAll, which
// is idempotent.
func (s *Store) ensureFanout(hash, dir string) error {
	i, _ := strconv.ParseUint(hash[:2], 16, 8)
	made := &s.fanout[i]
	if made.Load() {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	made.Store(true)
	return nil
}

// GetBlob returns the blob stored under hash.
func (s *Store) GetBlob(hash string) ([]byte, error) {
	path, err := s.blobPath(hash)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: blob %s: %w", hash, err)
	}
	if got := HashBytes(data); got != hash {
		return nil, fmt.Errorf("store: blob %s corrupted (content hashes to %s)", hash, got)
	}
	return data, nil
}

// HasBlob reports whether a blob is stored under hash.
func (s *Store) HasBlob(hash string) bool {
	path, err := s.blobPath(hash)
	if err != nil {
		return false
	}
	_, statErr := os.Stat(path)
	return statErr == nil
}
