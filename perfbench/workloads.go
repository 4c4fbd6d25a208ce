package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"spirvfuzz/internal/cluster"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

// Every operation runs in a fresh store, so its campaign and bisect job get
// these IDs, and case names and report hashes are the same in every
// operation of a run.
const (
	campaignID = "c001"
	bisectID   = "b001"
)

// workload is one input set of the benchmark. The program receives only the
// CampaignSpec it generates.
type workload struct {
	name    string
	why     string
	tests   int
	capPer  int  // CapPerSignature; 0 keeps the service default (2)
	workers int  // engine workers per service, or per cluster node
	nodes   int  // cluster nodes; 0 runs standalone
	memo    bool // warm repeats over a memo filled during set-up
	bisect  bool // each campaign is followed by a bisect job
}

// workloads are chosen so that each optimisation has one workload that
// exercises it and one that bypasses it: wide is bound by fuzz, classify
// and blob puts (reductions saturate at about 30 per campaign under the
// default cap); deep by reduction, replay, the runner caches and bisection;
// warm by the memo read path, with compile and render almost bypassed;
// cluster by wire, sync, lease dispatch and coordinator merge.
var workloads = []workload{
	{
		name:    "wide",
		why:     "many tests, default reduction cap: fuzz, classify (compile, plan, render) and blob puts dominate",
		tests:   1200,
		workers: 2,
	},
	{
		name:    "deep",
		why:     "cap >= tests so every bug is reduced, then bisected: reduce probes, replay, runner caches and bisect dominate",
		tests:   1440,
		capPer:  1440,
		workers: 2,
		bisect:  true,
	},
	{
		name:    "warm",
		why:     "warm repeat over a memo filled in set-up: the memo read path; compile and render are almost bypassed",
		tests:   1200,
		workers: 2,
		memo:    true,
	},
	{
		name:    "cluster",
		why:     "wide-shaped campaign on a 2-node loopback sim cluster: wire, sync, lease dispatch and coordinator merge",
		tests:   900,
		workers: 1,
		nodes:   2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// engineWorkers is the total engine pool of the workload: the standalone
// service's, or the sum over cluster nodes. Standalone operations on the
// cluster workload (the traced run and its overhead baseline) use it too.
func (w workload) engineWorkers() int {
	if w.nodes > 0 {
		return w.nodes * w.workers
	}
	return w.workers
}

// checkLoad refuses configurations that would oversubscribe the machine.
func (w workload) checkLoad(nproc int) error {
	if w.workers < 1 || w.engineWorkers() > nproc {
		return fmt.Errorf("workload %s needs %d engine workers (%d nodes x %d) but nproc is %d",
			w.name, w.engineWorkers(), max(w.nodes, 1), w.workers, nproc)
	}
	return nil
}

// spec generates the workload's campaign from the seed. Test i of the
// campaign fuzzes with seed SeedBase+i; the stride keeps the test sets of
// distinct seeds disjoint.
func (w workload) spec(seed int64) service.CampaignSpec {
	return service.CampaignSpec{
		Tests:           w.tests,
		SeedBase:        seed * 1_000_000,
		CapPerSignature: w.capPer,
	}
}

// campaignAPI is the part of the campaign API the benchmark drives; both
// *service.Service and *cluster.Coordinator serve it.
type campaignAPI interface {
	CreateCampaign(service.CampaignSpec) (service.CampaignStatus, error)
	Campaign(id string) (service.CampaignStatus, bool)
	Buckets(id string) ([]service.BucketSet, error)
	CreateBisect(service.BisectSpec) (service.BisectStatus, error)
	BisectJob(id string) (service.BisectStatus, bool)
	BisectResult(id string) (service.BisectSet, error)
}

// pollEvery is how often the client polls for completion; it bounds the
// latency the poll adds to campaign_s.
const pollEvery = time.Millisecond

// drive submits one campaign, waits for it, reads the buckets back, and for
// bisecting workloads does the same for a bisect job over the campaign. It
// returns the digest of everything read back.
func drive(ctx context.Context, api campaignAPI, spec service.CampaignSpec, withBisect bool) (string, error) {
	cs, err := api.CreateCampaign(spec)
	if err != nil {
		return "", err
	}
	if err := await(ctx, func() (string, string, bool) {
		st, ok := api.Campaign(cs.ID)
		return st.State, st.Error, ok
	}); err != nil {
		return "", fmt.Errorf("campaign %s: %w", cs.ID, err)
	}
	sets, err := api.Buckets(cs.ID)
	if err != nil {
		return "", err
	}
	if len(sets) != 1 {
		return "", fmt.Errorf("campaign %s: %d bucket sets", cs.ID, len(sets))
	}
	if !withBisect {
		return digestOf(sets[0].Buckets, nil), nil
	}
	bs, err := api.CreateBisect(service.BisectSpec{Campaign: cs.ID})
	if err != nil {
		return "", err
	}
	if err := await(ctx, func() (string, string, bool) {
		st, ok := api.BisectJob(bs.ID)
		return st.State, st.Error, ok
	}); err != nil {
		return "", fmt.Errorf("bisect %s: %w", bs.ID, err)
	}
	set, err := api.BisectResult(bs.ID)
	if err != nil {
		return "", err
	}
	return digestOf(sets[0].Buckets, &set), nil
}

// await polls status until the job is done. A failed job is an error.
func await(ctx context.Context, status func() (state, msg string, ok bool)) error {
	for {
		state, msg, ok := status()
		switch {
		case !ok:
			return fmt.Errorf("unknown job")
		case state == service.StateDone:
			return nil
		case state == service.StateFailed:
			return fmt.Errorf("failed: %s", msg)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("state %s: %w", state, ctx.Err())
		case <-time.After(pollEvery):
		}
	}
}

// digestOf hashes a campaign's buckets and, when given, its bisect set.
func digestOf(buckets []service.Bucket, set *service.BisectSet) string {
	if len(buckets) == 0 {
		buckets = nil // an empty set reads back as null or [] depending on the path
	}
	data, err := json.Marshal(struct {
		Buckets []service.Bucket   `json:"buckets"`
		Bisect  *service.BisectSet `json:"bisect,omitempty"`
	}{buckets, set})
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// opResult is what one untraced operation measured.
type opResult struct {
	setup    time.Duration
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64 // bytes
	mallocs  uint64
	liveHeap uint64 // bytes
	disk     int64  // bytes
	digest   string
	layer    map[string]float64 // layer counters read from public Stats/Metrics
}

func (r opResult) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":      r.setup.Seconds(),
		"campaign_s":   r.wall.Seconds(),
		"cpu_s":        r.cpu.Seconds(),
		"alloc_mb":     float64(r.alloc) / (1 << 20),
		"allocs_k":     float64(r.mallocs) / 1e3,
		"live_heap_mb": float64(r.liveHeap) / (1 << 20),
		"disk_mb":      float64(r.disk) / (1 << 20),
	}
}

// meter brackets the measured part of an operation.
type meter struct {
	t0      time.Time
	cpu0    time.Duration
	alloc0  uint64
	malloc0 uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{t0: time.Now(), cpu0: cpuTime(), alloc0: ms.TotalAlloc, malloc0: ms.Mallocs}
}

func (m meter) stop(r *opResult) {
	r.wall = time.Since(m.t0)
	r.cpu = cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.alloc = ms.TotalAlloc - m.alloc0
	r.mallocs = ms.Mallocs - m.malloc0
}

// liveHeap is the heap left after a collection, with the operation's
// service (and its caches) still alive.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// openService opens a fresh store under dir and a service over it.
func openService(dir string, workers int, memoDir string) (*service.Service, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(st, service.Options{Workers: workers, MemoDir: memoDir})
	if err != nil {
		st.Close()
		return nil, err
	}
	return svc, nil
}

// simCluster is a coordinator over a fresh store with its loopback nodes.
type simCluster struct {
	st  *store.Store
	co  *cluster.Coordinator
	sim *cluster.Sim
}

// openCluster starts the workload's nodes with no injected latency and no
// slowdown knobs, against a coordinator over a fresh store under dir.
func openCluster(w workload, dir string) (*simCluster, error) {
	st, err := store.Open(filepath.Join(dir, "coordinator"))
	if err != nil {
		return nil, err
	}
	co, err := cluster.NewCoordinator(st, cluster.Options{})
	if err != nil {
		st.Close()
		return nil, err
	}
	sim, err := cluster.StartSim(co, w.nodes, filepath.Join(dir, "nodes"), w.workers)
	if err != nil {
		co.Close()
		st.Close()
		return nil, err
	}
	return &simCluster{st: st, co: co, sim: sim}, nil
}

func (c *simCluster) close() error {
	c.sim.Stop()
	err := c.co.Close()
	if cerr := c.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// timeSetup opens and closes one operation's environment in dir and returns
// how long opening took.
func timeSetup(ctx context.Context, w workload, dir, memoDir string, onCluster bool) (time.Duration, error) {
	t0 := time.Now()
	if onCluster {
		c, err := openCluster(w, dir)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		return d, c.close()
	}
	svc, err := openService(dir, w.engineWorkers(), memoDir)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	return d, svc.Close(ctx)
}

// runStandalone is one operation on a standalone service: a fresh store
// (and the shared memo, when memoDir is set), one campaign read back, and
// for bisecting workloads one bisect job.
func runStandalone(ctx context.Context, w workload, spec service.CampaignSpec, dir, memoDir string) (opResult, error) {
	var r opResult
	memo0 := dirSize(memoDir)
	t0 := time.Now()
	svc, err := openService(dir, w.engineWorkers(), memoDir)
	if err != nil {
		return r, err
	}
	r.setup = time.Since(t0)
	m := startMeter()
	r.digest, err = drive(ctx, svc, spec, w.bisect)
	m.stop(&r)
	if err == nil {
		r.liveHeap = liveHeap()
		r.layer = serviceLayers(svc.Metrics())
	}
	if cerr := svc.Close(ctx); err == nil && cerr != nil {
		err = cerr
	}
	r.disk = dirSize(dir) + max(0, dirSize(memoDir)-memo0)
	return r, err
}

// serviceLayers reads a standalone service's layer counters. The service is
// fresh per operation, so its totals are the operation's deltas.
func serviceLayers(m service.Metrics) map[string]float64 {
	lay := runnerLayers(m.Runner)
	lay["replay.hit_frac"] = m.Replay.HitRate()
	lay["replay.mean_suffix"] = m.Replay.MeanSuffix()
	lay["store.journal_records"] = float64(m.Store.JournalRecords)
	if m.Memo != nil {
		lay["memo.hit_frac"] = m.Memo.HitRate()
		lay["memo.hits"] = float64(m.Memo.Hits)
		lay["memo.spills"] = float64(m.Memo.Spills)
		lay["memo.spills_dropped"] = float64(m.Memo.SpillsDropped)
		lay["memo.mb"] = float64(m.Memo.Bytes) / (1 << 20)
	}
	return lay
}

func runnerLayers(s runner.Stats) map[string]float64 {
	return map[string]float64{
		"runner.result_hit_frac":   frac(float64(s.Hits), float64(s.Hits+s.Misses)),
		"runner.compile_hit_frac":  frac(float64(s.CompileHits), float64(s.CompileHits+s.CompileMisses)),
		"runner.render_hit_frac":   frac(float64(s.RenderHits), float64(s.RenderHits+s.RenderMisses)),
		"runner.plan_hit_frac":     frac(float64(s.PlanHits), float64(s.PlanHits+s.PlanMisses)),
		"runner.compile_misses":    float64(s.CompileMisses),
		"runner.render_misses":     float64(s.RenderMisses),
		"runner.singleflight_hits": float64(s.SingleflightHits),
		"runner.evictions":         float64(s.Evictions),
	}
}

// runCluster is one operation on a sim cluster: one campaign read back
// through the coordinator.
func runCluster(ctx context.Context, w workload, spec service.CampaignSpec, dir string) (opResult, error) {
	var r opResult
	t0 := time.Now()
	c, err := openCluster(w, dir)
	if err != nil {
		return r, err
	}
	defer c.close()
	r.setup = time.Since(t0)
	wire0 := cluster.SnapshotWire()
	m := startMeter()
	r.digest, err = drive(ctx, c.co, spec, w.bisect)
	m.stop(&r)
	if err != nil {
		return r, err
	}
	wire := cluster.SnapshotWire().Sub(wire0)
	r.liveHeap = liveHeap()
	cm := c.co.Metrics()
	r.layer = runnerLayers(cm.Runner)
	r.layer["replay.hit_frac"] = cm.Replay.HitRate()
	r.layer["replay.mean_suffix"] = cm.Replay.MeanSuffix()
	r.layer["store.journal_records"] = float64(cm.Store.JournalRecords)
	cs := cm.Cluster
	r.layer["cluster.shards"] = float64(cs.ShardsCompleted)
	r.layer["cluster.requeued"] = float64(cs.ShardsRequeued)
	r.layer["cluster.duplicate"] = float64(cs.ShardsDuplicate)
	r.layer["cluster.round_trips"] = float64(cs.Sync.RoundTrips)
	r.layer["cluster.sync_ms"] = float64(cs.Sync.Nanos) / 1e6
	r.layer["cluster.wire_frac"] = wire.WireFraction()
	r.layer["cluster.blob_dedup_frac"] = cs.BlobDedupFraction
	r.layer["cluster.prefetched_frac"] = frac(float64(cs.Sync.Prefetched), float64(cs.ShardsCompleted))
	r.layer["wire_kb"] = float64(wire.WireBytesOut+wire.WireBytesIn) / 1024
	r.disk = dirSize(dir)
	return r, nil
}

// reference computes the digest the workload's operations must reproduce:
// the same spec on the tree-walking reference interpreter, one engine
// worker, no memo. Cluster results must match the standalone reference.
func reference(ctx context.Context, w workload, spec service.CampaignSpec, dir string) (string, error) {
	interp.SetTreeWalker(true)
	defer interp.SetTreeWalker(false)
	svc, err := openService(dir, 1, "")
	if err != nil {
		return "", err
	}
	digest, err := drive(ctx, svc, spec, w.bisect)
	if cerr := svc.Close(ctx); err == nil && cerr != nil {
		err = cerr
	}
	return digest, err
}

// fillMemo runs one cold campaign with a fresh memo at memoDir and closes
// it, so the memo's spills are flushed: the memo write path.
func fillMemo(ctx context.Context, w workload, spec service.CampaignSpec, dir, memoDir string) (time.Duration, error) {
	t0 := time.Now()
	svc, err := openService(dir, w.engineWorkers(), memoDir)
	if err != nil {
		return 0, err
	}
	_, err = drive(ctx, svc, spec, w.bisect)
	if cerr := svc.Close(ctx); err == nil && cerr != nil {
		err = cerr
	}
	return time.Since(t0), err
}

// removeAll deletes an operation's directory between operations, then
// flushes the file system, so the next operation starts with no writeback
// of this one's files pending.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	syscall.Sync()
}
