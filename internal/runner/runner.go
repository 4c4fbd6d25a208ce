// Package runner is the concurrent execution engine behind campaigns and
// reduction. It provides three things the rest of the repo composes:
//
//   - a worker pool, sized by GOMAXPROCS unless overridden, that bounds how
//     many simulated-compiler invocations run at once no matter how many
//     goroutines fan work out;
//
//   - a sharded, content-addressed cache with four layers: whole results
//     keyed by (target name, module fingerprint, inputs), compiled modules
//     keyed by (module fingerprint, mutation fingerprint), register-VM plans
//     keyed by the compiled module's fingerprint, and renders keyed by
//     (compiled module fingerprint, inputs). Delta debugging probes many
//     overlapping subsets of one transformation sequence and re-probes them
//     after every successful removal, and campaigns run the same original
//     module once per generated test; both collapse to a single execution per
//     distinct key; and
//
//   - a batched multi-target entry point, RunAllCtx, that fans one module
//     across many targets with the module and inputs hashed once and the
//     phase-split target API (CheckCrashes / Mutations / SharedCompile) used
//     so that all targets whose injected mutations agree — commonly the empty
//     set, shared by all nine — compile and render the module exactly once.
//
// Target execution is deterministic, so cached results are exact and the
// engine never changes observable behaviour — only how often the simulated
// compilers actually run. Every layer is a flight.Cache, so entries are
// deduplicated in flight: when two goroutines ask for the same key
// concurrently, one executes and the other waits for its result.
package runner

import (
	"context"
	"crypto/sha256"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spirvfuzz/internal/flight"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/opt"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/target"
)

const (
	// defaultCacheCap bounds total cached results across all shards.
	defaultCacheCap = 1 << 14
	// maxUniformMemo bounds the uniforms-hash memo (entries pin their maps).
	maxUniformMemo = 4096
	// parallelRenderMinPixels gates row-parallel rendering: grids below it
	// render serially even when SetRenderWorkers enabled parallelism, because
	// goroutine fan-out costs more than the render itself on small grids.
	parallelRenderMinPixels = 4096
)

// key identifies one target execution by content, not identity: two
// structurally identical modules (e.g. the same ddmin candidate reached via
// different removal orders) hash to the same key. For the render layer the
// target field is empty and mod holds the compiled module's fingerprint —
// rendering depends only on the compiled module and the inputs, so targets
// that compile a module identically share one render.
type key struct {
	target string
	mod    [sha256.Size]byte
	w, h   int
	uni    [sha256.Size]byte
}

// ckey identifies one compile: module content plus which miscompiling
// rewrites the target applies to it (target.MutationFingerprint). Targets
// with equal mutation fingerprints share the clone + mutate + optimize work;
// the common fingerprint is "" (no injected mutation fires).
type ckey struct {
	mod [sha256.Size]byte
	mut string
}

// result is one result-layer value: what tg.Run returns.
type result struct {
	img   *interp.Image
	crash *target.Crash
}

// compiled is one compile-layer value: the shared compiled module, its
// cached fingerprint (the render-layer key, so renders never re-encode the
// module), or the pipeline error text, which each target wraps in its own
// signature.
type compiled struct {
	mod    *spirv.Module
	fp     [sha256.Size]byte
	errMsg string
}

// rendered is one render-layer value: the image or the fault text.
type rendered struct {
	img    *interp.Image
	errMsg string
}

// planned is one plan-layer value: the compiled module lowered to a
// register Program, or the lowering error text. Programs are immutable and
// shared by every render of the same compiled module.
type planned struct {
	prog   *interp.Program
	errMsg string
}

// uniHash memoizes the hash of one uniforms map. The map itself is retained
// so its address (the memo key) cannot be reused by a different map while
// the entry is alive.
type uniHash struct {
	ref  map[string]interp.Value
	hash [sha256.Size]byte
}

func keyShard(k key) byte                { return k.mod[0] }
func ckeyShard(k ckey) byte              { return k.mod[0] }
func hashShard(h [sha256.Size]byte) byte { return h[0] }

// pointerShard spreads map addresses, whose low bits are alignment, across
// shards with a Fibonacci hash.
func pointerShard(p uintptr) byte { return byte(uint64(p) * 0x9E3779B97F4A7C15 >> 56) }

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	// Result layer: full (target, module, inputs) executions.
	Hits   uint64 // Run calls answered from the cache (incl. completed in-flight waits)
	Misses uint64 // Run calls that executed the target toolchain
	// Compile layer: (module, mutation fingerprint) clone+mutate+optimize
	// runs, consulted on result-layer misses and shared across targets.
	CompileHits   uint64
	CompileMisses uint64
	// Render layer: (compiled module, inputs) interpreter runs, consulted on
	// result-layer misses and shared across targets.
	RenderHits   uint64
	RenderMisses uint64
	// Plan layer: compiled modules lowered once to register-VM Programs,
	// keyed by the compiled module's fingerprint and consulted on
	// render-layer misses — ddmin replays and cross-target shared compiles
	// reuse one lowering per distinct compiled module.
	PlanHits         uint64
	PlanMisses       uint64
	PlanCompileNanos int64  // total wall time spent lowering modules to plans
	Evictions        uint64 // cache entries discarded to stay under the cap
	Entries          int    // entries currently cached (all layers)
	Workers          int    // worker-pool size
	// OptPasses is the process-wide per-pass optimizer profile (runs,
	// changed, wall time) accumulated by opt.Pipeline.
	OptPasses []opt.PassStat
	// Lane-execution counters, process-wide like OptPasses: lane groups
	// launched, control-flow divergences, and pixels retired to the scalar
	// VM. All zero unless interp.SetLanes enabled warp-style rendering.
	LaneGroups      uint64
	LaneDivergences uint64
	ScalarFallbacks uint64
	// Memo tier: persistent result/compile lookups (see memo.go). All zero
	// unless SetMemoStore attached a store. MemoHits are executions served
	// from disk without running anything; MemoMisses are lookups that had
	// to execute; MemoSpills are outcomes queued for persistence; and
	// SingleflightHits are executions answered by another engine's
	// in-flight run on the shared store.
	MemoHits         uint64
	MemoMisses       uint64
	MemoSpills       uint64
	SingleflightHits uint64
}

// HitRate returns the fraction of cache lookups served without executing
// anything, across all layers — result, compile, render, plan, and the
// persistent memo tier; 0 before any Run call. A singleflight hit counts
// as served (its lookup is already in the denominator as a memo miss),
// so the rate never exceeds 1.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.CompileHits + s.CompileMisses +
		s.RenderHits + s.RenderMisses + s.PlanHits + s.PlanMisses +
		s.MemoHits + s.MemoMisses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.CompileHits+s.RenderHits+s.PlanHits+
		s.MemoHits+s.SingleflightHits) / float64(total)
}

// Engine is a memoizing, concurrency-bounded executor of target runs. It is
// safe for concurrent use; the zero value is not valid — use New.
type Engine struct {
	workers       int
	sem           chan struct{}
	maxPerShard   int
	sharing       bool
	renderWorkers int
	results       *flight.Cache[key, result]                // (target, module, inputs)
	compiles      *flight.Cache[ckey, compiled]             // (module, mutations)
	plans         *flight.Cache[[sha256.Size]byte, planned] // compiled module -> Program
	renders       *flight.Cache[key, rendered]              // ("", compiled module, inputs)
	uniforms      *flight.Cache[uintptr, uniHash]           // uniforms map address -> hash

	// memo is the optional persistent fifth tier (see memo.go); nil when
	// no store is attached.
	memo *memostore.Store

	misses           atomic.Uint64
	compileMisses    atomic.Uint64
	renderMisses     atomic.Uint64
	planMisses       atomic.Uint64
	planNanos        atomic.Int64
	memoHits         atomic.Uint64
	memoMisses       atomic.Uint64
	memoSpills       atomic.Uint64
	singleflightHits atomic.Uint64
}

// New returns an engine whose worker pool admits workers concurrent target
// executions; workers <= 0 selects GOMAXPROCS.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	per := defaultCacheCap / flight.Shards
	return &Engine{
		workers:     workers,
		sem:         make(chan struct{}, workers),
		maxPerShard: per,
		sharing:     true,
		results:     flight.New[key, result](per, keyShard),
		compiles:    flight.New[ckey, compiled](per, ckeyShard),
		plans:       flight.New[[sha256.Size]byte, planned](per, hashShard),
		renders:     flight.New[key, rendered](per, keyShard),
		uniforms:    flight.New[uintptr, uniHash](maxUniformMemo/flight.Shards, pointerShard),
	}
}

// SetRenderWorkers sets the row-parallelism used for render-layer misses on
// grids of at least parallelRenderMinPixels pixels; n <= 1 keeps renders
// serial (the default — campaign grids are small, and the engine already
// parallelises across runs, so intra-render parallelism only pays off for
// large single renders). Output is byte-identical at any setting. Not safe
// to call concurrently with Run.
func (e *Engine) SetRenderWorkers(n int) { e.renderWorkers = n }

// SetCacheCap rebounds the total number of cached results; 0 disables
// caching entirely (every Run executes the full toolchain — the pre-engine
// baseline). It only affects future insertions and is not safe to call
// concurrently with Run.
func (e *Engine) SetCacheCap(total int) {
	per := 0
	if total > 0 {
		per = max(total/flight.Shards, 1)
	}
	e.maxPerShard = per
	e.results.SetCap(per)
	e.compiles.SetCap(per)
	e.plans.SetCap(per)
	e.renders.SetCap(per)
}

// SetCompileSharing toggles the phase-split execute path. Sharing is on by
// default; turning it off restores the monolithic per-target path — every
// result-layer miss runs target.Compile itself, module and inputs hashes are
// recomputed per call, and the compile layer is bypassed — which exists as
// the benchmark baseline for the sharing win. Results are bitwise identical
// either way. Not safe to call concurrently with Run.
func (e *Engine) SetCompileSharing(on bool) { e.sharing = on }

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Run executes m on tg with the given inputs, memoized, with semantics
// identical to tg.Run. Results are shared between callers and must be
// treated as immutable (images and crashes are never mutated anywhere in the
// repo).
//
// Three cache layers serve a lookup. The result layer is keyed by (target,
// module, inputs) and memoizes whole executions. On a result-layer miss the
// target is phase-split: its crash predicates run directly (a pure scan, no
// clone), the clone + mutate + optimize tail is served from the compile
// layer keyed by (module, mutation fingerprint) — so targets whose injected
// defects agree on a module, most targets for most modules, compile it once
// — and the interpreter run is served from the render layer, keyed by the
// compiled module's content. A variant classified against all nine targets
// is typically compiled once and rendered once, not nine and six times.
func (e *Engine) Run(tg *target.Target, m *spirv.Module, in interp.Inputs) (*interp.Image, *target.Crash) {
	img, crash, _ := e.RunCtx(context.Background(), tg, m, in)
	return img, crash
}

// RunCtx is Run with cancellation: a canceled ctx aborts promptly — before
// executing, while queued for a worker slot, or while waiting on another
// goroutine's in-flight execution — returning ctx.Err(). Cancellation never
// poisons the cache: an aborted executor withdraws its in-flight entry so
// concurrent waiters retry, and an execution that already started runs to
// completion (target runs are short) and caches normally.
func (e *Engine) RunCtx(ctx context.Context, tg *target.Target, m *spirv.Module, in interp.Inputs) (*interp.Image, *target.Crash, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if e.maxPerShard == 0 {
		e.misses.Add(1)
		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
		img, crash := tg.Run(m, in)
		<-e.sem
		return img, crash, nil
	}
	return e.runKeyed(ctx, tg, m, in, e.keyFor(tg, m, in))
}

// TargetResult is one target's slot in a RunAllCtx batch: the rendered image
// (nil for offline targets and crashes) and the crash, exactly as the
// corresponding RunCtx call would return them.
type TargetResult struct {
	Img   *interp.Image
	Crash *target.Crash
}

// RunAll is RunAllCtx without cancellation.
func (e *Engine) RunAll(targets []*target.Target, m *spirv.Module, in interp.Inputs) []TargetResult {
	out, _ := e.RunAllCtx(context.Background(), targets, m, in)
	return out
}

// RunAllCtx executes m on every target in one batch and returns the results
// indexed like targets. The module fingerprint and inputs hash are computed
// once for the whole batch, crash checks fan out on the worker pool, each
// distinct (module, mutation fingerprint) class is compiled once, and each
// distinct compiled module is rendered once per inputs. Per-slot results are
// bitwise identical to calling RunCtx once per target, at any worker count.
// A canceled ctx returns (nil, ctx.Err()).
func (e *Engine) RunAllCtx(ctx context.Context, targets []*target.Target, m *spirv.Module, in interp.Inputs) ([]TargetResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]TargetResult, len(targets))
	var run func(i int) error
	if e.maxPerShard == 0 || !e.sharing {
		// Degraded modes keep per-call hashing; RunCtx handles both.
		run = func(i int) error {
			img, crash, err := e.RunCtx(ctx, targets[i], m, in)
			out[i] = TargetResult{Img: img, Crash: crash}
			return err
		}
	} else {
		base := key{mod: m.Fingerprint(), w: in.W, h: in.H, uni: e.uniformsHash(in.Uniforms)}
		run = func(i int) error {
			k := base
			k.target = targetKey(targets[i])
			img, crash, err := e.runKeyed(ctx, targets[i], m, in, k)
			out[i] = TargetResult{Img: img, Crash: crash}
			return err
		}
	}
	if len(targets) == 1 {
		// Skip the pool for the degenerate batch (reduction's per-target
		// interestingness queries).
		if err := run(0); err != nil {
			return nil, err
		}
		return out, nil
	}
	if err := e.DoCtx(ctx, len(targets), func(i int) { _ = run(i) }); err != nil {
		return nil, err
	}
	return out, nil
}

// runKeyed is the common result-layer protocol behind RunCtx and RunAllCtx:
// look up k, wait on an in-flight executor, or execute and cache. An
// executor canceled while queued for a worker slot withdraws its entry.
func (e *Engine) runKeyed(ctx context.Context, tg *target.Target, m *spirv.Module, in interp.Inputs, k key) (*interp.Image, *target.Crash, error) {
	r, err := e.results.Do(ctx, k, func() (result, error) {
		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			return result{}, ctx.Err()
		}
		img, crash := e.execute(tg, m, in, k)
		<-e.sem
		return result{img, crash}, nil
	})
	return r.img, r.crash, err
}

// runUncached executes the toolchain for a result-layer miss. With sharing
// on it mirrors target.Run phase by phase — crash predicates directly, the
// compile tail through the compile cache, the render through the render
// cache keyed by the compiled module's fingerprint. With sharing off it is
// the monolithic baseline: tg.Compile plus a render memoized on a fresh
// hash of the compiled module's encoding.
func (e *Engine) runUncached(tg *target.Target, m *spirv.Module, in interp.Inputs, k key) (*interp.Image, *target.Crash) {
	var mod *spirv.Module
	rk := key{w: k.w, h: k.h, uni: k.uni}
	if e.sharing {
		if crash := tg.CheckCrashes(m); crash != nil {
			return nil, crash
		}
		c := e.compile(m, k.mod, tg.Mutations(m))
		if c.errMsg != "" {
			return nil, &target.Crash{Signature: tg.Name + ": internal compiler error: " + c.errMsg}
		}
		mod, rk.mod = c.mod, c.fp
	} else {
		var crash *target.Crash
		mod, crash = tg.Compile(m)
		if crash != nil {
			return nil, crash
		}
		rk.mod = sha256.Sum256(mod.EncodeBytes())
	}
	if !tg.CanRender {
		return nil, nil
	}
	r := e.render(mod, rk, in)
	if r.errMsg != "" {
		return nil, &target.Crash{Signature: tg.Name + ": device fault: " + r.errMsg}
	}
	return r.img, nil
}

// compile serves the clone + mutate + optimize tail from the compile cache,
// keyed by (module fingerprint, mutation fingerprint). The shared compiled
// module must be treated as immutable; exactly one of module/error is set.
// Executors hold a worker slot already, so waiters block without a ctx: the
// peer they wait on is running, not queued. The compile, render and plan
// fills cache their errors as text and never fail, so their entries are
// never withdrawn and the Do error is always nil.
func (e *Engine) compile(m *spirv.Module, modHash [sha256.Size]byte, muts []target.Mutation) compiled {
	ck := ckey{mod: modHash, mut: target.FingerprintMutations(muts)}
	c, _ := e.compiles.Do(context.Background(), ck, func() (compiled, error) {
		if e.memoActive() {
			return e.compileMemoFill(m, muts, ck), nil
		}
		e.compileMisses.Add(1)
		return sharedCompile(m, muts), nil
	})
	return c
}

// sharedCompile runs target.SharedCompile and fingerprints its output.
func sharedCompile(m *spirv.Module, muts []target.Mutation) compiled {
	mod, err := target.SharedCompile(m, muts)
	if err != nil {
		return compiled{errMsg: err.Error()}
	}
	return compiled{mod: mod, fp: mod.Fingerprint()}
}

// render executes the reference interpreter, memoized on rk (compiled module
// fingerprint plus inputs). The error message is cached as text so each
// target can prefix its own name, exactly as target.Run does.
func (e *Engine) render(mod *spirv.Module, rk key, in interp.Inputs) rendered {
	r, _ := e.renders.Do(context.Background(), rk, func() (rendered, error) {
		e.renderMisses.Add(1)
		img, err := e.renderCompiled(mod, rk, in)
		if err != nil {
			return rendered{errMsg: err.Error()}, nil
		}
		return rendered{img: img}, nil
	})
	return r
}

// renderCompiled executes the interpreter for a render-layer miss: the
// compiled module's register-VM plan comes from the plan cache (keyed by
// rk.mod, the compiled module's fingerprint) and runs row-parallel when
// SetRenderWorkers enabled it and the grid is large enough. When the
// tree-walker flag is set the plan layer is bypassed and the reference
// evaluator runs instead — same images, same faults, no lowering.
func (e *Engine) renderCompiled(mod *spirv.Module, rk key, in interp.Inputs) (*interp.Image, error) {
	if interp.TreeWalker() {
		return interp.RenderTree(mod, in)
	}
	p := e.plan(mod, rk.mod)
	if p.errMsg != "" {
		return nil, errors.New(p.errMsg)
	}
	w, h := rk.w, rk.h
	if w == 0 {
		w = interp.DefaultGrid
	}
	if h == 0 {
		h = interp.DefaultGrid
	}
	workers := 1
	if e.renderWorkers > 1 && w*h >= parallelRenderMinPixels {
		workers = e.renderWorkers
	}
	return p.prog.RenderParallel(in, workers)
}

// plan serves module→Program lowering from the plan cache, keyed by the
// compiled module's fingerprint — the same identity the render layer keys
// on, so ddmin replays and cross-target shared compiles that converge on
// one compiled module lower it exactly once. Exactly one of prog/errMsg is
// set; lowering errors are precisely the errors RenderTree would report
// before its first pixel, cached as text like render errors.
func (e *Engine) plan(mod *spirv.Module, fp [sha256.Size]byte) planned {
	p, _ := e.plans.Do(context.Background(), fp, func() (planned, error) {
		e.planMisses.Add(1)
		start := time.Now()
		prog, err := interp.Compile(mod)
		e.planNanos.Add(time.Since(start).Nanoseconds())
		if err != nil {
			return planned{errMsg: err.Error()}, nil
		}
		return planned{prog: prog}, nil
	})
	return p
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		Hits:             e.results.Hits(),
		Misses:           e.misses.Load(),
		CompileHits:      e.compiles.Hits(),
		CompileMisses:    e.compileMisses.Load(),
		RenderHits:       e.renders.Hits(),
		RenderMisses:     e.renderMisses.Load(),
		PlanHits:         e.plans.Hits(),
		PlanMisses:       e.planMisses.Load(),
		PlanCompileNanos: e.planNanos.Load(),
		Evictions:        e.results.Evictions() + e.compiles.Evictions() + e.plans.Evictions() + e.renders.Evictions(),
		Entries:          e.results.Len() + e.compiles.Len() + e.plans.Len() + e.renders.Len(),
		Workers:          e.workers,
		OptPasses:        opt.PassStats(),
		MemoHits:         e.memoHits.Load(),
		MemoMisses:       e.memoMisses.Load(),
		MemoSpills:       e.memoSpills.Load(),
		SingleflightHits: e.singleflightHits.Load(),
	}
	lt := interp.LaneTotals()
	st.LaneGroups, st.LaneDivergences, st.ScalarFallbacks = lt.Groups, lt.Divergences, lt.Fallbacks
	return st
}

// Do runs f(0) … f(n-1) on the worker pool and returns when all calls have
// finished. Iterations are distributed dynamically, so uneven work does not
// idle workers. f must be safe for concurrent invocation.
func (e *Engine) Do(n int, f func(i int)) {
	e.DoCtx(context.Background(), n, f)
}

// DoCtx is Do with cancellation: once ctx is done, no further iteration is
// dispatched and DoCtx returns ctx.Err() after in-flight iterations finish —
// the pool aborts promptly instead of draining the remaining n iterations.
// Iterations that were dispatched before cancellation run to completion; f
// that wants intra-iteration promptness should consult ctx itself.
func (e *Engine) DoCtx(ctx context.Context, n int, f func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := e.workers
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			f(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				f(int(i))
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// targetKey names a target in the result-layer cache key. Historical release
// views share a Name with the canonical target but carry different defect
// sets, so the key qualifies the name with the version; the latest release is
// the canonical pointer itself and therefore keys identically whether reached
// through target.At or the default path. The compile layer is deliberately
// not version-qualified: a compile is fully determined by (module, mutation
// fingerprint), so releases with equal firing sets share one compile — the
// cache win bisection depends on.
func targetKey(tg *target.Target) string {
	return tg.Name + "\x00" + tg.Version
}

// keyFor builds the content-addressed cache key. With sharing on, the module
// hash is the memoized fingerprint and the inputs hash is the memoized
// uniforms hash (width and height travel as explicit key fields); with
// sharing off, both are recomputed from a fresh encoding on every call — the
// pre-phase-split behaviour the benchmarks baseline against.
func (e *Engine) keyFor(tg *target.Target, m *spirv.Module, in interp.Inputs) key {
	if e.sharing {
		return key{target: targetKey(tg), mod: m.Fingerprint(), w: in.W, h: in.H, uni: e.uniformsHash(in.Uniforms)}
	}
	k := key{target: targetKey(tg), mod: sha256.Sum256(m.EncodeBytes())}
	// EncodeInputs is deterministic (encoding/json sorts map keys). Inputs
	// that fail to encode share a sentinel hash; they would fail identically
	// inside the interpreter anyway.
	if data, err := interp.EncodeInputs(in); err == nil {
		k.uni = sha256.Sum256(data)
	}
	return k
}

// uniformsHash returns the hash of a uniforms map, memoized by the map's
// address: campaigns and reductions query thousands of runs against a
// handful of long-lived input maps, so the JSON encoding runs once per map
// instead of once per call. Entries retain the map they hashed, so an
// address cannot be recycled by a different live map; callers must not
// mutate a uniforms map after its first engine run (nothing in the repo
// does — inputs are cloned before fuzzing mutates them). Uniforms that fail
// to encode share a zero sentinel distinct from every real hash.
func (e *Engine) uniformsHash(u map[string]interp.Value) [sha256.Size]byte {
	v, _ := e.uniforms.Do(context.Background(), reflect.ValueOf(u).Pointer(), func() (uniHash, error) {
		v := uniHash{ref: u}
		if data, err := interp.EncodeInputs(interp.Inputs{Uniforms: u}); err == nil {
			v.hash = sha256.Sum256(data)
		}
		return v, nil
	})
	return v.hash
}
