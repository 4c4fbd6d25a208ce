// Package memostore is a disk-backed, content-addressed execution memo
// table: a persistent fifth cache tier under internal/runner's in-memory
// layers. Records are (key, kind, payload) triples appended to segment
// files as JSON lines; an in-memory index maps keys to their newest disk
// location; an atomically-written checkpoint of the index makes reopening
// cheap. The store borrows internal/store's durability idioms — torn tails
// are truncated on open, checkpoints are temp+fsync+rename — but relaxes
// them where cache semantics allow: every payload is the deterministic
// outcome of a content-addressed execution, so losing a record, dropping a
// whole segment for the size budget, or serving a stale duplicate is always
// safe. The only invariant is that a record served under a key is the exact
// bytes once spilled under that key.
//
// Concurrency: all operations are safe for concurrent use. Get/Put/spill
// serialize on one mutex (memo lookups happen only on in-memory cache
// misses, so the lock is cold); the singleflight table (Do) is a separate
// flight.Cache so a flight's fn can touch the store freely.
package memostore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"spirvfuzz/internal/flight"
)

// Key is a content-addressed memo key — in practice a SHA-256 over a
// domain-separation prefix plus the execution's identifying content.
type Key [32]byte

// String returns the key's lowercase hex form (the wire encoding).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, err
	}
	if len(b) != len(k) {
		return k, fmt.Errorf("memostore: key length %d, want %d", len(b), len(k))
	}
	copy(k[:], b)
	return k, nil
}

// Record is one memo entry as transferred over cluster sync.
type Record struct {
	Key  Key
	Kind uint8
	Data []byte
}

// Stats is a point-in-time snapshot of store counters. Recovery counters
// describe the most recent Open; sync counters are maintained by the
// cluster layer via AddPulled/AddPushed.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Spills        uint64 `json:"spills"`         // records appended (sync + async)
	SpillsDropped uint64 `json:"spills_dropped"` // async spills dropped on a full queue
	Records       int    `json:"records"`        // live index entries
	Segments      int    `json:"segments"`
	Bytes         int64  `json:"bytes"`
	Evictions     uint64 `json:"evictions"`   // segments dropped for the size budget
	Compactions   uint64 `json:"compactions"` // segments rewritten (live records kept)
	Checkpoints   uint64 `json:"checkpoints"`
	// Recovery counters from the most recent Open.
	RecoveredRecords   uint64 `json:"recovered_records,omitempty"`   // index entries rebuilt by scanning
	TruncatedTails     uint64 `json:"truncated_tails,omitempty"`     // torn segment tails truncated
	MismatchedSegments uint64 `json:"mismatched_segments,omitempty"` // checkpoint/segment size mismatches
	// Cluster sync counters.
	Pulled uint64 `json:"pulled,omitempty"` // records received from a peer
	Pushed uint64 `json:"pushed,omitempty"` // records sent to a peer
}

// HitRate returns Hits/(Hits+Misses); 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

const (
	segPrefix = "seg-"
	segSuffix = ".log"
	indexName = "index.json"
	// checkpointEvery bounds how many appends go unindexed on disk; a crash
	// loses at most this many records to the (cheap) tail scan on reopen.
	checkpointEvery = 1024
	// spillQueueCap bounds the async spill queue; overflow drops records
	// (they will be re-executed and re-spilled later) rather than blocking
	// the execution path. Sized so a campaign burst outrunning a briefly
	// stalled disk (dirty-page writeback) parks in memory instead of
	// dropping: payloads are a few KiB, so the worst case is ~tens of MiB.
	spillQueueCap = 4096
	// DefaultMaxBytes is the segment budget when Open is given maxBytes <= 0.
	DefaultMaxBytes = 256 << 20
)

// loc is one index slot: where a key's record lives on disk.
type loc struct {
	seg  int
	off  int64
	n    int // line length including the trailing newline
	kind uint8
	seq  uint64 // monotone append order, for KeysSince
}

// segment is one on-disk append-only file of records.
type segment struct {
	id      int
	f       *os.File
	size    int64
	records int // lines ever appended (live + dead)
	live    int // index entries pointing here
}

// line is the on-disk and on-wire JSON shape of one record.
type line struct {
	K string `json:"k"`
	T uint8  `json:"t"`
	D []byte `json:"d,omitempty"`
}

// decodeLine parses one segment line (with or without its trailing
// newline). Lines the store writes itself have a fixed field order and no
// escapable bytes, so a handwritten scan serves the hot read path — a
// warm campaign decodes one line per served execution, and recovery scans
// every line past the checkpoint. Anything surprising falls back to
// encoding/json, so the fast path can only accelerate, never reject, a
// record the generic decoder would accept.
func decodeLine(buf []byte) (line, error) {
	buf = bytes.TrimSuffix(buf, []byte("\n"))
	if rec, ok := fastLine(buf); ok {
		return rec, nil
	}
	var rec line
	err := json.Unmarshal(buf, &rec)
	return rec, err
}

// fastLine decodes exactly the shape putLocked marshals:
// {"k":"<64 hex>","t":<digits>} optionally followed by ,"d":"<base64>".
func fastLine(buf []byte) (line, bool) {
	var rec line
	rest, ok := bytes.CutPrefix(buf, []byte(`{"k":"`))
	if !ok || len(rest) < 64 {
		return rec, false
	}
	rec.K = string(rest[:64])
	rest, ok = bytes.CutPrefix(rest[64:], []byte(`","t":`))
	if !ok {
		return rec, false
	}
	t, i := 0, 0
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		t = t*10 + int(rest[i]-'0')
		if t > 255 {
			return rec, false
		}
		i++
	}
	if i == 0 {
		return rec, false
	}
	rec.T = uint8(t)
	rest = rest[i:]
	if bytes.Equal(rest, []byte("}")) {
		return rec, true
	}
	rest, ok = bytes.CutPrefix(rest, []byte(`,"d":"`))
	if !ok {
		return rec, false
	}
	b64, ok := bytes.CutSuffix(rest, []byte(`"}`))
	if !ok || bytes.IndexByte(b64, '\\') >= 0 {
		return rec, false
	}
	data := make([]byte, base64.StdEncoding.DecodedLen(len(b64)))
	n, err := base64.StdEncoding.Decode(data, b64)
	if err != nil {
		return rec, false
	}
	rec.D = data[:n]
	return rec, true
}

// checkpoint is the persistent index shape.
type checkpoint struct {
	NextSeg  int           `json:"next_seg"`
	Segments []ckptSegment `json:"segments"`
	Entries  []ckptEntry   `json:"entries"`
}

type ckptSegment struct {
	ID   int   `json:"id"`
	Size int64 `json:"size"`
}

type ckptEntry struct {
	K    string `json:"k"`
	Seg  int    `json:"seg"`
	Off  int64  `json:"off"`
	N    int    `json:"n"`
	Kind uint8  `json:"t"`
}

// Store is a disk-backed memo table; use Open.
type Store struct {
	dir       string
	maxBytes  int64
	segTarget int64

	mu      sync.Mutex
	index   map[Key]loc
	segs    map[int]*segment
	order   []int // segment ids, oldest first; last is the append target
	nextSeg int
	nextSeq uint64
	unckpt  int // appends since the last checkpoint
	stats   Stats
	closed  bool

	spillCh   chan spillMsg
	spillWG   sync.WaitGroup
	closeOnce sync.Once

	flights *flight.Cache[Key, any]
}

type spillMsg struct {
	rec   Record
	flush chan struct{} // non-nil: a flush barrier, not a record
}

// Open opens (creating if needed) the memo store rooted at dir. maxBytes
// bounds total segment bytes (<= 0 selects DefaultMaxBytes). Recovery
// trusts the checkpointed index for segment prefixes the checkpoint
// covers, scans everything past them, truncates torn tails, rescans any
// segment shorter than its checkpointed size from the start, and drops
// index entries whose segment file is missing — every path degrades to a
// smaller cache, never to wrong data.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		index:    make(map[Key]loc),
		segs:     make(map[int]*segment),
		flights:  flight.New[Key, any](0, func(k Key) byte { return k[0] }),
		spillCh:  make(chan spillMsg, spillQueueCap),
	}
	st.segTarget = maxBytes / 8
	if st.segTarget < 256<<10 {
		st.segTarget = 256 << 10
	}
	if err := st.recover(); err != nil {
		return nil, err
	}
	st.spillWG.Add(1)
	go st.spillLoop()
	return st, nil
}

// recover rebuilds the in-memory index from the checkpoint plus segment
// scans. Called once from Open, before any concurrency.
func (s *Store) recover() error {
	var ckpt checkpoint
	if data, err := os.ReadFile(filepath.Join(s.dir, indexName)); err == nil {
		if json.Unmarshal(data, &ckpt) != nil {
			ckpt = checkpoint{} // corrupt checkpoint: rebuild by scanning
		}
	}
	ckptSize := make(map[int]int64, len(ckpt.Segments))
	for _, cs := range ckpt.Segments {
		ckptSize[cs.ID] = cs.Size
	}

	names, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var ids []int
	for _, de := range names {
		n := de.Name()
		if !de.Type().IsRegular() || !startsWith(n, segPrefix) || !endsWith(n, segSuffix) {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(n, segPrefix+"%08d"+segSuffix, &id); err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)

	// Partition the checkpoint's entries by segment for trusted replay.
	bySeg := make(map[int][]ckptEntry)
	for _, e := range ckpt.Entries {
		bySeg[e.Seg] = append(bySeg[e.Seg], e)
	}

	for _, id := range ids {
		path := s.segPath(id)
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		seg := &segment{id: id, f: f, size: fi.Size()}
		trusted := ckptSize[id]
		entries := bySeg[id]
		if fi.Size() < trusted {
			// Index/segment mismatch: the checkpoint promises bytes the
			// file does not have. Distrust the checkpoint for this
			// segment entirely and rebuild it by scanning.
			s.stats.MismatchedSegments++
			trusted, entries = 0, nil
		}
		for _, e := range entries {
			if e.Off+int64(e.N) > trusted {
				continue // entry beyond the durable prefix; the scan decides
			}
			k, err := ParseKey(e.K)
			if err != nil {
				continue
			}
			seg.records++
			if _, dup := s.index[k]; dup {
				continue
			}
			s.nextSeq++
			s.index[k] = loc{seg: id, off: e.Off, n: e.N, kind: e.Kind, seq: s.nextSeq}
			seg.live++
		}
		// Scan everything past the trusted prefix: records spilled after
		// the last checkpoint, or the whole file on mismatch.
		valid, scanned, torn, err := s.scanSegment(seg, trusted)
		if err != nil {
			f.Close()
			return err
		}
		s.stats.RecoveredRecords += uint64(scanned)
		if torn {
			s.stats.TruncatedTails++
		}
		if valid < seg.size {
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return err
			}
			seg.size = valid
		}
		s.segs[id] = seg
		s.order = append(s.order, id)
		s.nextSeg = id + 1
	}
	if ckpt.NextSeg > s.nextSeg {
		s.nextSeg = ckpt.NextSeg
	}
	// Checkpoint entries pointing at segments missing on disk were simply
	// never added: the map lookups above only cover on-disk ids.
	s.refreshGauges()
	return nil
}

// scanSegment replays records from offset from, indexing each complete
// line. It returns the end of the last complete record, how many records
// it indexed, and whether a torn or malformed tail was found.
func (s *Store) scanSegment(seg *segment, from int64) (valid int64, scanned int, torn bool, err error) {
	if _, err := seg.f.Seek(from, io.SeekStart); err != nil {
		return 0, 0, false, err
	}
	r := bufio.NewReader(seg.f)
	valid = from
	for {
		ln, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A partial line at EOF is a torn write from a crash mid-spill.
			return valid, scanned, len(ln) > 0, nil
		}
		if err != nil {
			return 0, 0, false, err
		}
		rec, err := decodeLine(ln)
		if err != nil {
			// Malformed interior line: everything from here is suspect.
			// Cache semantics make truncation safe.
			return valid, scanned, true, nil
		}
		k, kerr := ParseKey(rec.K)
		if kerr != nil {
			return valid, scanned, true, nil
		}
		seg.records++
		if _, dup := s.index[k]; !dup {
			s.nextSeq++
			s.index[k] = loc{seg: seg.id, off: valid, n: len(ln), kind: rec.T, seq: s.nextSeq}
			seg.live++
			scanned++
		}
		valid += int64(len(ln))
	}
}

func (s *Store) segPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf(segPrefix+"%08d"+segSuffix, id))
}

// Get returns the payload stored under k. A record that fails to read
// back (evicted concurrently, or corrupted inside a checkpoint-trusted
// prefix) is treated as a miss and its index entry dropped — the store
// self-heals instead of serving bad bytes.
func (s *Store) Get(k Key) (kind uint8, data []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.index[k]
	if !ok {
		s.stats.Misses++
		return 0, nil, false
	}
	rec, err := s.readLocked(k, l)
	if err != nil {
		delete(s.index, k)
		if seg := s.segs[l.seg]; seg != nil {
			seg.live--
		}
		s.stats.Misses++
		s.refreshGauges()
		return 0, nil, false
	}
	s.stats.Hits++
	return rec.Kind, rec.Data, true
}

// Has reports whether k is indexed (without touching disk or hit/miss
// counters — it exists for sync negotiation, not for lookups).
func (s *Store) Has(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[k]
	return ok
}

// GetRecord is Get returning the full Record shape (for sync transfers).
func (s *Store) GetRecord(k Key) (Record, bool) {
	kind, data, ok := s.Get(k)
	if !ok {
		return Record{}, false
	}
	return Record{Key: k, Kind: kind, Data: data}, true
}

// readLocked reads and validates one record. Caller holds mu.
func (s *Store) readLocked(k Key, l loc) (Record, error) {
	seg := s.segs[l.seg]
	if seg == nil {
		return Record{}, fmt.Errorf("memostore: segment %d gone", l.seg)
	}
	buf := make([]byte, l.n)
	if _, err := seg.f.ReadAt(buf, l.off); err != nil {
		return Record{}, err
	}
	rec, err := decodeLine(buf)
	if err != nil {
		return Record{}, err
	}
	gotK, err := ParseKey(rec.K)
	if err != nil {
		return Record{}, err
	}
	if gotK != k {
		return Record{}, fmt.Errorf("memostore: key mismatch at seg %d off %d", l.seg, l.off)
	}
	return Record{Key: k, Kind: rec.T, Data: rec.D}, nil
}

// Put appends a record under k if the key is not already present.
// Payloads are deterministic functions of their keys, so overwriting is
// pointless; put-if-absent keeps segments duplicate-free.
func (s *Store) Put(k Key, kind uint8, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(Record{Key: k, Kind: kind, Data: data})
}

// PutBatch appends every absent record in recs (the sync pull path).
func (s *Store) PutBatch(recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		if err := s.putLocked(r); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) putLocked(r Record) error {
	if s.closed {
		return fmt.Errorf("memostore: closed")
	}
	if _, ok := s.index[r.Key]; ok {
		return nil
	}
	seg, err := s.appendSegLocked()
	if err != nil {
		return err
	}
	data, err := json.Marshal(line{K: r.Key.String(), T: r.Kind, D: r.Data})
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := seg.f.WriteAt(data, seg.size); err != nil {
		return err
	}
	s.nextSeq++
	s.index[r.Key] = loc{seg: seg.id, off: seg.size, n: len(data), kind: r.Kind, seq: s.nextSeq}
	seg.size += int64(len(data))
	seg.records++
	seg.live++
	s.stats.Spills++
	s.unckpt++
	s.enforceBudgetLocked()
	if s.unckpt >= checkpointEvery {
		if err := s.checkpointLocked(); err != nil {
			return err
		}
	}
	s.refreshGauges()
	return nil
}

// appendSegLocked returns the active append segment, rolling to a fresh
// one when the current segment reached the per-segment target size.
func (s *Store) appendSegLocked() (*segment, error) {
	if n := len(s.order); n > 0 {
		seg := s.segs[s.order[n-1]]
		if seg.size < s.segTarget {
			return seg, nil
		}
	}
	id := s.nextSeg
	s.nextSeg++
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	seg := &segment{id: id, f: f}
	s.segs[id] = seg
	s.order = append(s.order, id)
	return seg, nil
}

// enforceBudgetLocked brings total segment bytes back under the budget by
// retiring the oldest segments: a segment mostly dead is compacted (its
// live records re-appended to the active segment, the file dropped),
// while a mostly-live one is evicted outright — the LRU trade: old
// records cost a re-execution to recover, which is exactly what the memo
// saved once already.
func (s *Store) enforceBudgetLocked() {
	for s.totalBytesLocked() > s.maxBytes && len(s.order) > 1 {
		oldest := s.segs[s.order[0]]
		if oldest.live > 0 && oldest.live*2 < oldest.records {
			s.compactSegLocked(oldest)
			s.stats.Compactions++
		} else {
			s.dropSegLocked(oldest)
			s.stats.Evictions++
		}
	}
}

func (s *Store) totalBytesLocked() int64 {
	var n int64
	for _, seg := range s.segs {
		n += seg.size
	}
	return n
}

// compactSegLocked rewrites seg's live records into the active segment
// and removes seg. Records that fail to read back are silently dropped
// (cache semantics).
func (s *Store) compactSegLocked(seg *segment) {
	var keep []Record
	for k, l := range s.index {
		if l.seg != seg.id {
			continue
		}
		if rec, err := s.readLocked(k, l); err == nil {
			keep = append(keep, rec)
		}
		delete(s.index, k)
	}
	// Deterministic rewrite order keeps recovered stores comparable.
	sort.Slice(keep, func(i, j int) bool {
		return bytes.Compare(keep[i].Key[:], keep[j].Key[:]) < 0
	})
	s.dropSegLocked(seg)
	for _, r := range keep {
		tgt, err := s.appendSegLocked()
		if err != nil {
			return
		}
		data, err := json.Marshal(line{K: r.Key.String(), T: r.Kind, D: r.Data})
		if err != nil {
			continue
		}
		data = append(data, '\n')
		if _, err := tgt.f.WriteAt(data, tgt.size); err != nil {
			return
		}
		s.nextSeq++
		s.index[r.Key] = loc{seg: tgt.id, off: tgt.size, n: len(data), kind: r.Kind, seq: s.nextSeq}
		tgt.size += int64(len(data))
		tgt.records++
		tgt.live++
	}
	s.unckpt++
}

// dropSegLocked removes seg and every index entry pointing at it.
func (s *Store) dropSegLocked(seg *segment) {
	for k, l := range s.index {
		if l.seg == seg.id {
			delete(s.index, k)
		}
	}
	seg.f.Close()
	os.Remove(s.segPath(seg.id))
	delete(s.segs, seg.id)
	for i, id := range s.order {
		if id == seg.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.unckpt++
}

// Compact rewrites every segment, dropping dead bytes, and checkpoints.
// Exposed for tests and maintenance; the budget path compacts lazily.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("memostore: closed")
	}
	old := append([]int(nil), s.order...)
	for _, id := range old {
		seg := s.segs[id]
		if seg == nil {
			continue
		}
		s.compactSegLocked(seg)
		s.stats.Compactions++
	}
	s.refreshGauges()
	return s.checkpointLocked()
}

// Keys returns every indexed key in sorted order.
func (s *Store) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Key, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// KeysSince returns the keys appended after mark (in append order) and
// the new mark — the incremental push-sync cursor. Mark 0 returns
// everything.
func (s *Store) KeysSince(mark uint64) ([]Key, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	type ks struct {
		k   Key
		seq uint64
	}
	var picked []ks
	high := mark
	for k, l := range s.index {
		if l.seq > mark {
			picked = append(picked, ks{k, l.seq})
			if l.seq > high {
				high = l.seq
			}
		}
	}
	sort.Slice(picked, func(i, j int) bool { return picked[i].seq < picked[j].seq })
	out := make([]Key, len(picked))
	for i, p := range picked {
		out[i] = p.k
	}
	return out, high
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Do collapses concurrent executions of the same key: the first caller
// for k runs fn and every caller that arrives while it is in flight
// blocks and shares the result (shared=true). The flight table lives on
// the Store so independent engines spilling to one memo store — a
// campaign, a bisect job, and a precheck racing over the same corpus —
// collapse duplicate work across engine boundaries, not just within one
// engine's in-memory cache. It retains nothing: once fn returns, the next
// caller for k runs fn afresh.
//
// fn's result is shared by reference; callers must treat it as immutable
// (the runner's images and crashes already are). Followers wait without a
// context: leaders hold a worker slot and run promptly, exactly like the
// in-memory compile layer's waiters.
func (s *Store) Do(k Key, fn func() any) (val any, shared bool) {
	shared = true
	// The fill cannot fail, so the flight is never withdrawn.
	val, _ = s.flights.Do(context.Background(), k, func() (any, error) {
		shared = false
		return fn(), nil
	})
	return val, shared
}

// SpillAsync enqueues a record for background persistence. It never
// blocks: when the queue is full the record is dropped and counted — the
// execution it memoizes will simply run again someday and re-spill.
func (s *Store) SpillAsync(k Key, kind uint8, data []byte) {
	select {
	case s.spillCh <- spillMsg{rec: Record{Key: k, Kind: kind, Data: data}}:
	default:
		s.mu.Lock()
		s.stats.SpillsDropped++
		s.mu.Unlock()
	}
}

// Flush blocks until every spill enqueued before the call has been
// written. Tests use it to make async spills deterministic; sync uses it
// so KeysSince sees a complete picture.
func (s *Store) Flush() {
	done := make(chan struct{})
	select {
	case s.spillCh <- spillMsg{flush: done}:
		<-done
	default:
		// Queue full of real records: drain by blocking send.
		s.spillCh <- spillMsg{flush: done}
		<-done
	}
}

func (s *Store) spillLoop() {
	defer s.spillWG.Done()
	for msg := range s.spillCh {
		if msg.flush != nil {
			close(msg.flush)
			continue
		}
		_ = s.Put(msg.rec.Key, msg.rec.Kind, msg.rec.Data)
	}
}

// checkpointLocked atomically persists the index: temp file, fsync,
// rename — the same idiom as internal/store checkpoints. Segment files
// are synced first so the checkpointed sizes never promise bytes the OS
// might still lose.
func (s *Store) checkpointLocked() error {
	ck := checkpoint{NextSeg: s.nextSeg}
	for _, id := range s.order {
		seg := s.segs[id]
		if err := seg.f.Sync(); err != nil {
			return err
		}
		ck.Segments = append(ck.Segments, ckptSegment{ID: id, Size: seg.size})
	}
	ents := make([]ckptEntry, 0, len(s.index))
	for k, l := range s.index {
		ents = append(ents, ckptEntry{K: k.String(), Seg: l.seg, Off: l.off, N: l.n, Kind: l.kind})
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].Seg != ents[j].Seg {
			return ents[i].Seg < ents[j].Seg
		}
		return ents[i].Off < ents[j].Off
	})
	ck.Entries = ents
	data, err := json.Marshal(&ck)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".ckpt-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, filepath.Join(s.dir, indexName)); err != nil {
		os.Remove(name)
		return err
	}
	s.unckpt = 0
	s.stats.Checkpoints++
	return nil
}

// Checkpoint persists the index now.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("memostore: closed")
	}
	return s.checkpointLocked()
}

// AddPulled records n records received from a peer (cluster sync).
func (s *Store) AddPulled(n int) {
	s.mu.Lock()
	s.stats.Pulled += uint64(n)
	s.mu.Unlock()
}

// AddPushed records n records sent to a peer (cluster sync).
func (s *Store) AddPushed(n int) {
	s.mu.Lock()
	s.stats.Pushed += uint64(n)
	s.mu.Unlock()
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshGauges()
	return s.stats
}

func (s *Store) refreshGauges() {
	s.stats.Records = len(s.index)
	s.stats.Segments = len(s.order)
	s.stats.Bytes = s.totalBytesLocked()
}

// Close flushes pending spills, checkpoints the index, and closes every
// segment handle. The store is unusable afterwards; extra Closes are
// no-ops.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.Flush()
		close(s.spillCh)
		s.spillWG.Wait()
		s.mu.Lock()
		defer s.mu.Unlock()
		err = s.checkpointLocked()
		for _, seg := range s.segs {
			seg.f.Close()
		}
		s.closed = true
	})
	return err
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func startsWith(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }
func endsWith(s, p string) bool   { return len(s) >= len(p) && s[len(s)-len(p):] == p }
