package cluster

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

// TestClusterPipelineIdentityMatrix is the transport property test: every
// combination of prefetch × compression/batching × node count must produce
// buckets bitwise-identical to the single-node service. The transport layers
// move bytes and overlap waits; they are never allowed to change results.
func TestClusterPipelineIdentityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster test")
	}
	want := referenceBuckets(t)
	configs := []struct {
		name                      string
		prefetch, compress, batch bool
	}{
		{"legacy", false, false, false},
		{"prefetch", true, false, false},
		{"compress-batch", false, true, true},
		{"pipelined", true, true, true},
	}
	for _, cfg := range configs {
		for _, nodes := range []int{1, 3} {
			cfg, nodes := cfg, nodes
			t.Run(fmt.Sprintf("%s-%dnode", cfg.name, nodes), func(t *testing.T) {
				t.Parallel()
				st, err := store.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				opts := testOpts()
				opts.AdaptiveShards = true
				co, err := NewCoordinator(st, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer co.Close()
				sim, err := StartSimCfg(co, SimConfig{
					Nodes: nodes, Dir: t.TempDir(), WorkersPer: 2,
					Worker: func(w *WorkerOptions) {
						w.Prefetch, w.Compress, w.Batch = cfg.prefetch, cfg.compress, cfg.batch
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer sim.Stop()
				status, err := co.CreateCampaign(testSpec())
				if err != nil {
					t.Fatal(err)
				}
				if err := waitDone(func() (service.CampaignStatus, bool) { return co.Campaign(status.ID) }); err != nil {
					t.Fatal(err)
				}
				if got := clusterBuckets(t, co, status.ID); !bytes.Equal(got, want) {
					t.Fatalf("%s/%d-node buckets differ from single-node run:\n got %s\nwant %s", cfg.name, nodes, got, want)
				}
				m := co.Metrics()
				if m.Cluster.Sync.RoundTrips == 0 {
					t.Fatalf("no round trips counted: %+v", m.Cluster.Sync)
				}
				if cfg.prefetch && m.Cluster.Sync.Prefetched == 0 {
					t.Fatalf("prefetch enabled but no shard arrived prefetched: %+v", m.Cluster.Sync)
				}
				if len(m.Cluster.Sizing) == 0 {
					t.Fatalf("adaptive sizing reported no phases: %+v", m.Cluster)
				}
				for _, sz := range m.Cluster.Sizing {
					if sz.Size < 1 || sz.Size > sz.MaxSize {
						t.Fatalf("sizing out of bounds: %+v", sz)
					}
				}
			})
		}
	}
}

// TestClusterKillRejoinMidPrefetch kills a worker at a moment it provably
// holds two leases — the executing shard and a prefetched one — then adds a
// fresh node. Both in-flight shards must expire, re-queue, re-execute, and
// the final buckets must stay bitwise-identical to the single-node run.
func TestClusterKillRejoinMidPrefetch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster test")
	}
	want := referenceBuckets(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	co, err := NewCoordinator(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	sim, err := StartSim(co, 2, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Stop()

	spec := testSpec()
	// Stretch both phases so executions outlast the kill window and the
	// prefetched shard is still unreported when the victim dies.
	spec.FuzzSlowdownMS = 20
	spec.ReduceSlowdownMS = 20
	status, err := co.CreateCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until some node holds at least two leases (one executing, one
	// prefetched), then kill exactly that node.
	victim := ""
	deadline := time.Now().Add(120 * time.Second)
	for victim == "" && time.Now().Before(deadline) {
		co.mu.Lock()
		held := map[string]int{}
		for _, ss := range co.leased {
			held[ss.node]++
		}
		for node, n := range held {
			if n >= 2 {
				victim = node
				break
			}
		}
		co.mu.Unlock()
		if victim == "" {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if victim == "" {
		t.Fatalf("no node ever held two leases before timeout")
	}
	sim.KillWorker(victim)
	if _, err := sim.AddWorker(); err != nil {
		t.Fatal(err)
	}

	if err := waitDone(func() (service.CampaignStatus, bool) { return co.Campaign(status.ID) }); err != nil {
		t.Fatal(err)
	}
	if got := clusterBuckets(t, co, status.ID); !bytes.Equal(got, want) {
		t.Fatalf("buckets after mid-prefetch kill differ from single-node run:\n got %s\nwant %s", got, want)
	}
	m := co.Metrics()
	if m.Cluster.ShardsRequeued == 0 {
		t.Fatalf("killed a double-leased node but nothing re-queued: %+v", m.Cluster)
	}
	if m.Cluster.Sync.Prefetched == 0 {
		t.Fatalf("prefetch on but no shard arrived prefetched: %+v", m.Cluster.Sync)
	}
}

// TestClusterLeaseStealDuplicateDropped force-expires a reduce lease while
// the owner is mid-execution, so the shard is stolen and executed twice. The
// coordinator must drop the extra result (records already merged) and the
// buckets must stay bitwise-identical.
func TestClusterLeaseStealDuplicateDropped(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster test")
	}
	want := referenceBuckets(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	co, err := NewCoordinator(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	sim, err := StartSim(co, 2, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Stop()

	spec := testSpec()
	spec.ReduceSlowdownMS = 30 // keep the owner busy while the lease is stolen
	status, err := co.CreateCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Find a live reduce lease and expire it in place: the sweep re-queues
	// the shard while its owner is still executing it.
	stolen := false
	deadline := time.Now().Add(120 * time.Second)
	for !stolen && time.Now().Before(deadline) {
		co.mu.Lock()
		for _, ss := range co.leased {
			if ss.phase == PhaseReduce {
				ss.deadline = time.Now().Add(-time.Second)
				co.sweepLeases(time.Now())
				stolen = true
				break
			}
		}
		co.mu.Unlock()
		if !stolen {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !stolen {
		t.Fatalf("no reduce lease observed before timeout")
	}

	if err := waitDone(func() (service.CampaignStatus, bool) { return co.Campaign(status.ID) }); err != nil {
		t.Fatal(err)
	}
	if got := clusterBuckets(t, co, status.ID); !bytes.Equal(got, want) {
		t.Fatalf("buckets after lease steal differ from single-node run:\n got %s\nwant %s", got, want)
	}
	if m := co.Metrics(); m.Cluster.ShardsRequeued == 0 {
		t.Fatalf("stole a lease but nothing re-queued: %+v", m.Cluster)
	}
	// The robbed owner may still be mid-reduction when the campaign
	// finishes; its late report is the duplicate, so wait for it.
	dupDeadline := time.Now().Add(60 * time.Second)
	for {
		m := co.Metrics()
		if m.Cluster.ShardsDuplicate > 0 {
			break
		}
		if time.Now().After(dupDeadline) {
			t.Fatalf("shard executed twice but no duplicate result dropped: %+v", m.Cluster)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerIdleBackoff checks the jittered exponential idle backoff: delays
// grow from Poll toward PollMax, each sleep is jittered into [d/2, d), and
// work resets the ladder.
func TestWorkerIdleBackoff(t *testing.T) {
	w, err := NewWorker(WorkerOptions{
		Node: "backoff", Coordinator: "http://127.0.0.1:0",
		StoreDir: t.TempDir(),
		Poll:     4 * time.Millisecond, PollMax: 16 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx := context.Background()
	wantNext := []time.Duration{8, 16, 16, 16} // ms: doubling from Poll, capped
	for i, want := range wantNext {
		start := time.Now()
		if !w.idleSleep(ctx) {
			t.Fatal("idleSleep returned false with a live context")
		}
		slept := time.Since(start)
		prev := want * time.Millisecond / 2
		if i == 0 {
			prev = 4 * time.Millisecond
		}
		if slept < prev/2 {
			t.Fatalf("sleep %d: slept %v, want at least half of %v", i, slept, prev)
		}
		if w.idle != want*time.Millisecond {
			t.Fatalf("sleep %d: next delay %v, want %v", i, w.idle, want*time.Millisecond)
		}
	}
	w.gotWork()
	if w.idle != 0 {
		t.Fatalf("gotWork did not reset backoff: %v", w.idle)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if w.idleSleep(canceled) {
		t.Fatal("idleSleep returned true with a canceled context")
	}
}

// TestTransportGzipRoundTrip drives postWire against a real coordinator mux
// and checks the negotiated compression and its accounting: compressible
// bodies shrink on the wire in both directions, and with compression off the
// wire bytes equal the raw bytes (the transport must not gzip behind the
// counters' back).
func TestTransportGzipRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	co, err := NewCoordinator(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Mux())
	defer srv.Close()

	hc := newWorkerClient()
	ctx := context.Background()
	blob := bytes.Repeat([]byte("spirv-transform-sequence "), 1024) // highly compressible, ~25 KiB

	var put putResponse
	var upSync SyncStats
	if _, err := postWire(ctx, hc, srv.URL, "/blobs/put", putRequest{Blobs: [][]byte{blob}}, &put, true, &upSync); err != nil {
		t.Fatal(err)
	}
	if len(put.Hashes) != 1 {
		t.Fatalf("put returned %d hashes", len(put.Hashes))
	}
	if upSync.WireBytesOut >= upSync.RawBytesOut {
		t.Fatalf("compressible request did not shrink: wire %d raw %d", upSync.WireBytesOut, upSync.RawBytesOut)
	}

	var fetch fetchResponse
	var downSync SyncStats
	if _, err := postWire(ctx, hc, srv.URL, "/blobs/fetch", fetchRequest{Hashes: put.Hashes}, &fetch, true, &downSync); err != nil {
		t.Fatal(err)
	}
	if len(fetch.Blobs) != 1 || !bytes.Equal(fetch.Blobs[0], blob) {
		t.Fatalf("fetched blob differs from stored blob")
	}
	if downSync.WireBytesIn >= downSync.RawBytesIn {
		t.Fatalf("compressible response did not shrink: wire %d raw %d", downSync.WireBytesIn, downSync.RawBytesIn)
	}

	var plain fetchResponse
	var plainSync SyncStats
	if _, err := postWire(ctx, hc, srv.URL, "/blobs/fetch", fetchRequest{Hashes: put.Hashes}, &plain, false, &plainSync); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Blobs[0], blob) {
		t.Fatalf("uncompressed fetch differs from stored blob")
	}
	if plainSync.WireBytesIn != plainSync.RawBytesIn || plainSync.WireBytesOut != plainSync.RawBytesOut {
		t.Fatalf("compression off but wire != raw: %+v", plainSync)
	}
}

// failingWriter rejects every write, like a client that hung up.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestTransportGzipPoolIdentical checks that pooled gzip writers, shared by
// concurrent goroutines and recycled after failed writes, emit exactly the
// bytes a fresh gzip.NewWriter does: the wire byte counts, and every peer's
// decoding, depend on it.
func TestTransportGzipPoolIdentical(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20; i++ {
				data := make([]byte, rng.Intn(16<<10))
				for j := range data {
					data[j] = "spirv{}[]:,0123456789"[rng.Intn(21)] // JSON-like, compressible
				}
				if i%7 == 3 {
					if err := gzipTo(failingWriter{}, data); err == nil {
						t.Error("gzipTo to a failing writer reported success")
						return
					}
				}
				var want, got bytes.Buffer
				zw := gzip.NewWriter(&want)
				zw.Write(data)
				zw.Close()
				if err := gzipTo(&got, data); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("goroutine %d message %d: pooled writer output differs from gzip.NewWriter", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
