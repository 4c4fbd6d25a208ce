package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spirvfuzz/internal/bisect"
	"spirvfuzz/internal/core"
	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/harness"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/opt"
	"spirvfuzz/internal/reduce"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/runner"
	"spirvfuzz/internal/service"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/store"
	"spirvfuzz/internal/target"
)

// The traced run measures the standalone layers from outside: it drives one
// campaign through the same public step functions the service composes
// (fuzz.Fuzz + harness.ClassifyAllCtx as in service.FuzzStep, the
// reduce.ForOutcomeOn predicate through reduce.ReduceParallelReplayCtx as in
// service.ReduceStep, service.BuildBuckets, service.BisectStep) on a
// service.Queue, and times each call. Nothing inside the program is
// instrumented. Its digest must equal the service's, which also checks that
// this composition still matches the service's.

// span accumulates calls and busy time at one layer boundary. Busy time sums
// over goroutines, so a layer running on two workers can be busy for twice
// the wall time.
type span struct {
	calls atomic.Int64
	nanos atomic.Int64
}

func (s *span) add(d time.Duration) {
	s.calls.Add(1)
	s.nanos.Add(int64(d))
}

func (s *span) ms() float64 { return float64(s.nanos.Load()) / 1e6 }

// tracer holds the traced run's spans and counters.
type tracer struct {
	fuzz, classify, reduce, probe, dedup, bisect span
	put, get                                     span
	// bisectStore is the part of bisect's busy time spent in blob reads,
	// subtracted to give bisect's self time.
	bisectStore span
	// replaySelf is reduce time not covered by any probe: replay of the
	// candidate sequences plus ddmin bookkeeping.
	replaySelf atomic.Int64

	transformations, useful, kept, seqLen atomic.Int64
	bisectProbes, exact, exactOf, buckets atomic.Int64
}

// timedBlobs is the service.BlobStore handed to the traced steps as
// Env.Blobs: it times every put and get. nested, when set, also receives the
// time so an enclosing span can subtract it.
type timedBlobs struct {
	inner  service.BlobStore
	t      *tracer
	nested *span
}

func (b timedBlobs) PutBlob(data []byte) (string, error) {
	t0 := time.Now()
	h, err := b.inner.PutBlob(data)
	b.record(&b.t.put, time.Since(t0))
	return h, err
}

func (b timedBlobs) GetBlob(hash string) ([]byte, error) {
	t0 := time.Now()
	data, err := b.inner.GetBlob(hash)
	b.record(&b.t.get, time.Since(t0))
	return data, err
}

func (b timedBlobs) record(s *span, d time.Duration) {
	s.add(d)
	if b.nested != nil {
		b.nested.add(d)
	}
}

// pipeline is one traced campaign's fixed inputs and machinery.
type pipeline struct {
	t       *tracer
	spec    service.CampaignSpec
	refs    []corpus.Item
	donors  []*spirv.Module
	targets []*target.Target
	eng     *runner.Engine
	reng    *replay.Engine
	env     service.Env // timed blobs for fuzz and reduce
	benv    service.Env // timed blobs nested in the bisect span

	// Set by run: the optimizer and plan time of the fuzz stage, where all
	// of it is classification, and the bisection engine's stats.
	optFuzz  passTotals
	planFuzz float64
	bisect   bisect.Stats
}

// traced is what one traced campaign returns.
type traced struct {
	wall   time.Duration
	digest string
	layer  map[string]float64
}

// runTraced runs one traced campaign in a fresh store under dir. memoDir,
// when set, attaches the persistent memo (opened and timed here).
func runTraced(ctx context.Context, w workload, spec service.CampaignSpec, dir, memoDir string) (traced, error) {
	if err := spec.Normalize(); err != nil {
		return traced{}, err
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return traced{}, err
	}
	defer st.Close()
	targets, err := service.ResolveTargets(spec.Targets)
	if err != nil {
		return traced{}, err
	}
	t := &tracer{}
	eng := runner.New(w.engineWorkers())
	var memoOpen time.Duration
	if memoDir != "" {
		t0 := time.Now()
		ms, err := memostore.Open(memoDir, 0)
		if err != nil {
			return traced{}, err
		}
		memoOpen = time.Since(t0)
		defer ms.Close()
		eng.SetMemoStore(ms)
	}
	p := &pipeline{
		t:       t,
		spec:    spec,
		refs:    corpus.References(),
		donors:  corpus.Donors(),
		targets: targets,
		eng:     eng,
		reng:    replay.NewEngine(replay.DefaultBudget),
	}
	p.env = service.Env{Eng: eng, Reng: p.reng, Blobs: timedBlobs{inner: st, t: t}}
	p.benv = service.Env{Eng: eng, Reng: p.reng, Blobs: timedBlobs{inner: st, t: t, nested: &t.bisectStore}}
	q := service.NewQueue(ctx, eng.Workers())
	defer q.Drain(context.Background())

	start := time.Now()
	opt0 := opt.PassStats()
	digest, err := p.run(ctx, q, w.bisect)
	if err != nil {
		return traced{}, err
	}
	wall := time.Since(start)
	optAll := passDelta(opt0, opt.PassStats())
	es := eng.Stats()
	qs := q.Stats()

	lay := map[string]float64{
		"fuzz.calls":           float64(t.fuzz.calls.Load()),
		"fuzz.ms":              t.fuzz.ms(),
		"fuzz.transformations": float64(t.transformations.Load()),
		"classify.calls":       float64(t.classify.calls.Load()),
		"classify.ms":          t.classify.ms(),
		"classify.other_ms":    t.classify.ms() - p.optFuzz.ms() - p.planFuzz,
		"opt.ms":               optAll.ms(),
		"opt.runs":             float64(optAll.runs()),
		"opt.changed_frac":     frac(float64(optAll.changed()), float64(optAll.runs())),
		"plan.calls":           float64(es.PlanMisses),
		"plan.ms":              float64(es.PlanCompileNanos) / 1e6,
		"reduce.cases":         float64(t.reduce.calls.Load()),
		"reduce.ms":            t.reduce.ms(),
		"reduce.probes":        float64(t.probe.calls.Load()),
		"reduce.probe_ms":      t.probe.ms(),
		"reduce.replay_ms":     float64(t.replaySelf.Load()) / 1e6,
		"reduce.useful_frac":   frac(float64(t.useful.Load()), float64(t.probe.calls.Load())),
		"reduce.kept_frac":     frac(float64(t.kept.Load()), float64(t.seqLen.Load())),
		"dedup.ms":             t.dedup.ms(),
		"dedup.buckets":        float64(t.buckets.Load()),
		"bisect.cases":         float64(t.bisect.calls.Load()),
		"bisect.ms":            t.bisect.ms(),
		"bisect.probes":        float64(t.bisectProbes.Load()),
		"bisect.probes_per_case": frac(float64(t.bisectProbes.Load()),
			float64(t.bisect.calls.Load())),
		"bisect.hit_frac":      p.bisect.HitFraction(),
		"bisect.compiles":      float64(p.bisect.Compiles),
		"bisect.exact_frac":    frac(float64(t.exact.Load()), float64(t.exactOf.Load())),
		"store.put_calls":      float64(t.put.calls.Load()),
		"store.put_ms":         t.put.ms(),
		"store.put_dedup_frac": frac(float64(st.Stats().BlobDedupHits), float64(t.put.calls.Load())),
		"store.get_calls":      float64(t.get.calls.Load()),
		"store.get_ms":         t.get.ms(),
		"memo.open_ms":         float64(memoOpen) / 1e6,
		"service.jobs":         float64(qs.Submitted),
		"service.retried":      float64(qs.Retries),
		"service.failed":       float64(qs.Failed),
	}
	for _, name := range optPasses {
		lay["opt."+name+".ms"] = float64(optAll[name].Nanos) / 1e6
	}
	// Shares of the traced busy time, by self time: bisect without the blob
	// reads it makes, reduce including its probes (they are its children).
	parts := map[string]float64{
		"fuzz":     t.fuzz.ms(),
		"classify": t.classify.ms(),
		"reduce":   t.reduce.ms(),
		"dedup":    t.dedup.ms(),
		"bisect":   t.bisect.ms() - t.bisectStore.ms(),
		"store":    t.put.ms() + t.get.ms(),
	}
	var base float64
	for _, v := range parts {
		base += v
	}
	lay["share.base_ms"] = base
	for k, v := range parts {
		lay["share."+k] = frac(v, base)
	}
	lay["share.reduce_dedup"] = frac(parts["reduce"]+parts["dedup"], base)
	return traced{wall: wall, digest: digest, layer: lay}, nil
}

// run executes the three campaign stages, and bisection when asked, and
// returns the result digest.
func (p *pipeline) run(ctx context.Context, q *service.Queue, withBisect bool) (string, error) {
	var mu sync.Mutex
	opt0 := opt.PassStats()
	testsDone := make(map[int][]service.BugRef, p.spec.Tests)
	err := runJobs(ctx, q, p.spec.Tests, func(ctx context.Context, i int) error {
		bugs, err := p.fuzzStep(ctx, i)
		if err != nil {
			return err
		}
		mu.Lock()
		testsDone[i] = bugs
		mu.Unlock()
		return nil
	})
	if err != nil {
		return "", err
	}
	p.optFuzz = passDelta(opt0, opt.PassStats())
	p.planFuzz = float64(p.eng.Stats().PlanCompileNanos) / 1e6

	cases := service.SelectReductions(campaignID, p.spec, testsDone)
	reduced := make(map[string]service.ReducedRec, len(cases))
	err = runJobs(ctx, q, len(cases), func(ctx context.Context, i int) error {
		rec, err := p.reduceStep(ctx, cases[i])
		if err != nil {
			return err
		}
		mu.Lock()
		reduced[rec.Case] = rec
		mu.Unlock()
		return nil
	})
	if err != nil {
		return "", err
	}

	t0 := time.Now()
	buckets, err := service.BuildBuckets(campaignID, p.spec, cases, reduced)
	p.t.dedup.add(time.Since(t0))
	if err != nil {
		return "", err
	}
	p.t.buckets.Store(int64(len(buckets)))
	if !withBisect {
		return digestOf(buckets, nil), nil
	}

	beng := bisect.New(p.eng)
	outcomes := make(map[string]service.BisectOutcome, len(cases))
	err = runJobs(ctx, q, len(cases), func(ctx context.Context, i int) error {
		rec := reduced[cases[i].Name]
		t0 := time.Now()
		out, err := service.BisectStep(ctx, p.benv, beng, p.refs, rec)
		p.t.bisect.add(time.Since(t0))
		if err != nil {
			return err
		}
		p.t.bisectProbes.Add(int64(out.Queries))
		if out.Signature != target.MiscompilationSignature {
			// Ground truth exists for crash signatures only.
			p.t.exactOf.Add(1)
			if out.FirstBad == target.IntroductionOf(out.Target, out.Signature) {
				p.t.exact.Add(1)
			}
		}
		mu.Lock()
		outcomes[out.Case] = out
		mu.Unlock()
		return nil
	})
	if err != nil {
		return "", err
	}
	t0 = time.Now()
	set, err := service.BuildBisectSet(bisectID, campaignID, cases, reduced, outcomes, len(buckets))
	p.t.dedup.add(time.Since(t0))
	if err != nil {
		return "", err
	}
	p.bisect = beng.Stats()
	return digestOf(buckets, &set), nil
}

// runJobs submits fn(0..n-1) to q and returns the first error in submission
// order, as the service's stages do.
func runJobs(ctx context.Context, q *service.Queue, n int, fn func(ctx context.Context, i int) error) error {
	handles := make([]*service.Handle, n)
	for i := 0; i < n; i++ {
		i := i
		handles[i] = q.Submit(service.Job{
			Label: fmt.Sprintf("traced/%d", i),
			Fn:    func(ctx context.Context) error { return fn(ctx, i) },
		})
	}
	for _, h := range handles {
		if err := h.Wait(ctx); err != nil {
			return err
		}
	}
	return nil
}

// fuzzStep is service.FuzzStep with fuzz.Fuzz and harness.ClassifyAllCtx
// timed separately.
func (p *pipeline) fuzzStep(ctx context.Context, i int) ([]service.BugRef, error) {
	item := p.refs[i%len(p.refs)]
	seed := p.spec.SeedBase + int64(i)
	t0 := time.Now()
	res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{
		Seed:                  seed,
		Donors:                p.donors,
		EnableRecommendations: p.spec.Tool == string(harness.ToolSpirvFuzz),
		MinPasses:             5,
		MaxPasses:             14,
	})
	p.t.fuzz.add(time.Since(t0))
	if err != nil {
		return nil, err
	}
	p.t.transformations.Add(int64(len(res.Transformations)))
	t0 = time.Now()
	sigs, err := harness.ClassifyAllCtx(ctx, p.eng, p.targets, item.Mod, res.Variant, item.Inputs, res.Inputs)
	p.t.classify.add(time.Since(t0))
	if err != nil {
		return nil, err
	}
	var bugs []service.BugRef
	var seqHash, variantHash string
	for ti, tg := range p.targets {
		if sigs[ti] == "" {
			continue
		}
		if seqHash == "" {
			seqData, err := fuzz.MarshalSequence(res.Transformations)
			if err != nil {
				return nil, err
			}
			if seqHash, err = p.env.Blobs.PutBlob(seqData); err != nil {
				return nil, err
			}
			if variantHash, err = p.env.Blobs.PutBlob(res.Variant.EncodeBytes()); err != nil {
				return nil, err
			}
		}
		bugs = append(bugs, service.BugRef{
			Target:      tg.Name,
			Signature:   sigs[ti],
			Reference:   item.Name,
			Seed:        seed,
			SeqHash:     seqHash,
			VariantHash: variantHash,
		})
	}
	return bugs, nil
}

// reduceStep is service.ReduceStep with the interestingness predicate
// counted and timed. Probe intervals are kept so the reduction's self time
// (replay and ddmin bookkeeping) is its span minus the time some probe ran.
func (p *pipeline) reduceStep(ctx context.Context, rc service.ReduceCase) (service.ReducedRec, error) {
	tg := target.ByName(rc.Bug.Target)
	if tg == nil {
		return service.ReducedRec{}, fmt.Errorf("unknown target %q", rc.Bug.Target)
	}
	item, err := findRef(p.refs, rc.Bug.Reference)
	if err != nil {
		return service.ReducedRec{}, err
	}
	seqData, err := p.env.Blobs.GetBlob(rc.Bug.SeqHash)
	if err != nil {
		return service.ReducedRec{}, err
	}
	ts, err := fuzz.UnmarshalSequence(seqData)
	if err != nil {
		return service.ReducedRec{}, err
	}

	start := time.Now()
	var mu sync.Mutex
	var probes [][2]time.Duration
	inner := reduce.ForOutcomeOn(p.eng, tg, item.Mod, item.Inputs, rc.Bug.Signature)
	interesting := func(m *spirv.Module, in interp.Inputs) bool {
		t0 := time.Now()
		ok := inner(m, in)
		t1 := time.Now()
		p.t.probe.add(t1.Sub(t0))
		if ok {
			p.t.useful.Add(1)
		}
		mu.Lock()
		probes = append(probes, [2]time.Duration{t0.Sub(start), t1.Sub(start)})
		mu.Unlock()
		return ok
	}
	res, err := reduce.ReduceParallelReplayCtx(ctx, item.Mod, item.Inputs, ts, interesting, service.ReduceWaveWidth, p.reng)
	total := time.Since(start)
	p.t.reduce.add(total)
	if err != nil {
		return service.ReducedRec{}, err
	}
	p.t.replaySelf.Add(int64(total - covered(probes)))
	p.t.kept.Add(int64(len(res.Kept)))
	p.t.seqLen.Add(int64(len(ts)))

	reducedSeq, err := fuzz.MarshalSequence(res.Sequence)
	if err != nil {
		return service.ReducedRec{}, err
	}
	blob, err := json.MarshalIndent(service.Report{
		Case:            rc.Name,
		Campaign:        campaignID,
		Target:          rc.Bug.Target,
		Signature:       rc.Bug.Signature,
		Reference:       rc.Bug.Reference,
		Seed:            rc.Bug.Seed,
		Kept:            res.Kept,
		Delta:           res.Delta,
		Queries:         res.Queries,
		Transformations: json.RawMessage(reducedSeq),
	}, "", "  ")
	if err != nil {
		return service.ReducedRec{}, err
	}
	reportHash, err := p.env.Blobs.PutBlob(blob)
	if err != nil {
		return service.ReducedRec{}, err
	}
	return service.ReducedRec{
		Case:       rc.Name,
		Target:     rc.Bug.Target,
		Signature:  rc.Bug.Signature,
		ReportHash: reportHash,
		Types:      core.SortedTypes(core.TypeSet(res.Sequence, fuzz.SupportingTypes())),
		KeptLen:    len(res.Kept),
		Delta:      res.Delta,
		Queries:    res.Queries,
	}, nil
}

// covered returns the total length of the union of intervals.
func covered(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum, end time.Duration
	for _, iv := range ivs {
		if iv[0] > end {
			end = iv[0]
		}
		if iv[1] > end {
			sum += iv[1] - end
			end = iv[1]
		}
	}
	return sum
}

func findRef(refs []corpus.Item, name string) (*corpus.Item, error) {
	for i := range refs {
		if refs[i].Name == name {
			return &refs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown reference %q", name)
}

// passTotals is an optimizer profile delta by pass name.
type passTotals map[string]opt.PassStat

// passDelta returns after - before per pass. The profile is process-wide,
// which is why operations never overlap in one benchmark process.
func passDelta(before, after []opt.PassStat) passTotals {
	out := make(passTotals, len(after))
	for _, a := range after {
		out[a.Name] = a
	}
	for _, b := range before {
		a := out[b.Name]
		a.Runs -= b.Runs
		a.Changed -= b.Changed
		a.Nanos -= b.Nanos
		out[b.Name] = a
	}
	return out
}

func (p passTotals) ms() float64 {
	var n int64
	for _, s := range p {
		n += s.Nanos
	}
	return float64(n) / 1e6
}

func (p passTotals) runs() uint64 {
	var n uint64
	for _, s := range p {
		n += s.Runs
	}
	return n
}

func (p passTotals) changed() uint64 {
	var n uint64
	for _, s := range p {
		n += s.Changed
	}
	return n
}
