// Command perfbench is the repository's campaign benchmark. One process runs
// a closed loop: a single client submits the next campaign only after the
// previous one was read back. Each operation is one campaign through the
// public service or cluster API in a fresh store, and on the deep workload
// a bisect job after it. Every operation's result is checked against a
// reference computed by the tree-walking interpreter.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload wide|deep|warm|cluster --seed N --seconds S --trace 0|1
//	perfbench --list
//
// With --trace 0 it prints the end-to-end metrics, each the median over the
// run's operations. With --trace 1 it interleaves traced campaigns, which
// time the standalone layers from outside, and prints the per-layer metrics.
// The last output line is one JSON object: correct, attempted, failed and
// metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spirvfuzz/internal/service"
)

// fills is how many times set-up fills the warm workload's memo; set-up
// time is the median.
const fills = 3

// Set-up is timed on its own, opening and closing an operation's
// environment: setupsFirst times before the loop, then setupsPerOp more
// before each operation, so the samples span the run. setup_s is the median
// over these and every operation's own set-up.
const (
	setupsFirst = 8
	setupsPerOp = 4
)

// workRoot holds each run's stores and memos, relative to the checkout the
// benchmark runs in.
const workRoot = ".bench_build/perfbench"

// opTimeout bounds one operation; a campaign that takes longer fails.
const opTimeout = 60 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: wide, deep, warm or cluster")
	seed := fl.Int64("seed", 1, "workload seed; sets the campaign's SeedBase")
	seconds := fl.Int("seconds", 10, "how long to measure")
	trace := fl.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	list := fl.Bool("list", false, "print every metric with its unit, direction and what it should move")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *list {
		listMetrics(stdout)
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (wide, deep, warm, cluster), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	nproc := runtime.NumCPU()
	fmt.Fprintf(stdout, "nproc %d GOMAXPROCS %d\n", nproc, runtime.GOMAXPROCS(0))
	if err := w.checkLoad(nproc); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{
		w:       w,
		spec:    w.spec(*seed),
		dir:     filepath.Join(workRoot, fmt.Sprintf("%s-%d", w.name, os.Getpid())),
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		log:     stderr,
	}
	res, values, err := b.run(context.Background())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defs := endToEnd
	if b.trace {
		defs = perLayer
		fmt.Fprintf(stdout, "share.reduce_dedup %.4f of %.1f busy ms; bisect probes per case %.2f\n",
			values["share.reduce_dedup"], values["share.base_ms"], values["bisect.probes_per_case"])
	}
	if err := emit(stdout, defs, values, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	w       workload
	spec    service.CampaignSpec
	dir     string
	seconds time.Duration
	trace   bool
	log     io.Writer

	ref     string // reference digest
	memoDir string
	ops     int
}

// opDir returns a fresh directory name for the next operation.
func (b *bench) opDir() string {
	b.ops++
	return filepath.Join(b.dir, fmt.Sprintf("op%d", b.ops))
}

// run sets up, measures for b.seconds and returns the result and the
// metric values for the run's mode.
func (b *bench) run(ctx context.Context) (result, map[string]float64, error) {
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return result{}, nil, err
	}
	defer removeAll(b.dir)

	t0 := time.Now()
	dir := b.opDir()
	rctx, cancel := context.WithTimeout(ctx, opTimeout)
	ref, err := reference(rctx, b.w, b.spec, dir)
	cancel()
	removeAll(dir)
	if err != nil {
		return result{}, nil, fmt.Errorf("reference: %w", err)
	}
	fmt.Fprintf(b.log, "reference %s in %.2fs (tree-walker, 1 worker)\n", ref[:16], time.Since(t0).Seconds())
	return b.measure(ctx, ref)
}

// measure runs the closed loop against the reference digest ref.
func (b *bench) measure(ctx context.Context, ref string) (result, map[string]float64, error) {
	b.ref = ref
	var fillTimes []float64
	if b.w.memo {
		for i := 0; i < fills; i++ {
			if b.memoDir != "" {
				removeAll(b.memoDir)
			}
			b.memoDir = filepath.Join(b.dir, fmt.Sprintf("memo%d", i))
			dir := b.opDir()
			d, err := fillMemo(ctx, b.w, b.spec, dir, b.memoDir)
			removeAll(dir)
			if err != nil {
				return result{}, nil, fmt.Errorf("memo fill: %w", err)
			}
			fillTimes = append(fillTimes, d.Seconds())
		}
	}

	e2e, lay := samples{}, samples{}
	if err := b.timeSetups(ctx, setupsFirst, e2e); err != nil {
		return result{}, nil, err
	}

	res := result{Correct: true}
	var plainWall, tracedWall []float64
	check := func(kind, digest string, err error) bool {
		res.Attempted++
		if err == nil && digest != b.ref {
			err = fmt.Errorf("digest %.16s differs from reference %.16s", digest, b.ref)
		}
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(b.log, "%s operation %d failed: %v\n", kind, res.Attempted, err)
			return false
		}
		return true
	}
	deadline := time.Now().Add(b.seconds)
	for res.Attempted == 0 || time.Now().Before(deadline) {
		if err := b.timeSetups(ctx, setupsPerOp, e2e); err != nil {
			return result{}, nil, err
		}
		r, err := b.op(ctx, b.w.nodes > 0)
		if check("untraced", r.digest, err) {
			fmt.Fprintf(b.log, "operation %d: %.3fs wall, %.3fs cpu\n", res.Attempted, r.wall.Seconds(), r.cpu.Seconds())
			e2e.add(r.endToEnd())
			lay.add(r.layer)
			if b.w.nodes == 0 {
				plainWall = append(plainWall, r.wall.Seconds())
			}
		}
		if !b.trace {
			continue
		}
		if b.w.nodes > 0 {
			// The overhead baseline is an untraced standalone campaign.
			r, err := b.op(ctx, false)
			if check("standalone", r.digest, err) {
				plainWall = append(plainWall, r.wall.Seconds())
			}
		}
		dir := b.opDir()
		tctx, cancel := context.WithTimeout(ctx, opTimeout)
		tr, err := runTraced(tctx, b.w, b.spec, dir, b.memoDir)
		cancel()
		removeAll(dir)
		if check("traced", tr.digest, err) {
			lay.add(tr.layer)
			tracedWall = append(tracedWall, tr.wall.Seconds())
		}
	}
	fmt.Fprintf(b.log, "%d operations, %d failed\n", res.Attempted, res.Failed)

	if !b.trace {
		values := e2e.medians()
		if len(fillTimes) > 0 {
			values["setup_s"] += median(fillTimes)
		}
		return res, values, nil
	}
	values := lay.medians()
	for _, d := range perLayer {
		if _, ok := values[d.Name]; !ok {
			values[d.Name] = 0 // a layer this workload does not exercise
		}
	}
	values["failed_frac"] = frac(float64(res.Failed), float64(res.Attempted))
	values["trace.overhead_frac"] = median(tracedWall)/median(plainWall) - 1
	return res, values, nil
}

// timeSetups times n set-ups of the workload's environment into s. A
// collection first keeps the previous operation's garbage out of them.
func (b *bench) timeSetups(ctx context.Context, n int, s samples) error {
	runtime.GC()
	for i := 0; i < n; i++ {
		dir := b.opDir()
		d, err := timeSetup(ctx, b.w, dir, b.memoDir, b.w.nodes > 0)
		removeAll(dir)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s.add(map[string]float64{"setup_s": d.Seconds()})
	}
	return nil
}

// op runs one untraced operation in a fresh directory: on the sim cluster
// when onCluster, else on a standalone service.
func (b *bench) op(ctx context.Context, onCluster bool) (opResult, error) {
	dir := b.opDir()
	defer removeAll(dir)
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	if onCluster {
		return runCluster(ctx, b.w, b.spec, dir)
	}
	return runStandalone(ctx, b.w, b.spec, dir, b.memoDir)
}
