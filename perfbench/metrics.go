package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one entry of the benchmark's metric catalogue. Moves names
// the end-to-end metrics (and workloads) a change to the layer should move;
// it is the prediction a performance claim is checked against.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	Moves  string  // per-layer only
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Each is the median over one run's operations. failed_frac and wire_kb
// are per-layer metrics: both read 0 on most workloads, and an end-to-end
// metric must never be 0. Failures still reach the result through its
// "failed" and "correct" fields.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "campaign_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "allocs_k", Unit: "k", Better: "lower", Bound: 0.2},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "disk_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// optPasses are the optimizer passes opt.PassStats reports, in a fixed
// order so every traced run prints the same metric names.
var optPasses = []string{
	"block-layout", "constant-fold", "copy-propagate", "cse-local", "dce",
	"eliminate-dead-blocks", "eliminate-redundant-phis", "inline", "merge-blocks",
}

const (
	movesCompile = "campaign_s, cpu_s, alloc_mb on wide; no change on warm"
	movesReduce  = "campaign_s on deep; no change on wide"
	movesBisect  = "campaign_s on deep"
	movesStore   = "campaign_s, cpu_s, disk_mb on wide"
	movesMemo    = "campaign_s and setup_s on warm"
	movesCluster = "campaign_s on cluster"
	movesRunner  = "campaign_s on deep, live_heap_mb on all workloads"
	movesShare   = "none; the paper's 'almost for free' share, base share.base_ms"
)

// perLayer are the traced run's metrics. Layers are named after the
// repository's packages. validate is absent on purpose: the campaign path
// runs it only under fuzz.Options.ValidateAfterEachPass, which no workload
// sets, so no workload could move it.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"fuzz.calls", "count", "lower", 0, "campaign_s, cpu_s on warm and wide"},
		{"fuzz.ms", "ms", "lower", 0, "campaign_s, cpu_s on warm and wide"},
		{"fuzz.transformations", "count", "lower", 0, "campaign_s, cpu_s on warm and wide"},
		{"classify.calls", "count", "lower", 0, movesCompile},
		{"classify.ms", "ms", "lower", 0, movesCompile},
		{"classify.other_ms", "ms", "lower", 0, movesCompile},
		{"opt.ms", "ms", "lower", 0, movesCompile},
		{"opt.runs", "count", "lower", 0, movesCompile},
		{"opt.changed_frac", "frac", "higher", 0, movesCompile},
	}
	for _, p := range optPasses {
		m = append(m, metricDef{"opt." + p + ".ms", "ms", "lower", 0, movesCompile})
	}
	m = append(m, []metricDef{
		{"plan.calls", "count", "lower", 0, movesCompile},
		{"plan.ms", "ms", "lower", 0, movesCompile},
		{"runner.result_hit_frac", "frac", "higher", 0, movesRunner},
		{"runner.compile_hit_frac", "frac", "higher", 0, movesRunner},
		{"runner.render_hit_frac", "frac", "higher", 0, movesRunner},
		{"runner.plan_hit_frac", "frac", "higher", 0, movesRunner},
		{"runner.compile_misses", "count", "lower", 0, movesRunner},
		{"runner.render_misses", "count", "lower", 0, movesRunner},
		{"runner.singleflight_hits", "count", "higher", 0, movesRunner},
		{"runner.evictions", "count", "lower", 0, movesRunner},
		{"reduce.cases", "count", "lower", 0, movesReduce},
		{"reduce.ms", "ms", "lower", 0, movesReduce},
		{"reduce.probes", "count", "lower", 0, movesReduce},
		{"reduce.probe_ms", "ms", "lower", 0, movesReduce},
		{"reduce.replay_ms", "ms", "lower", 0, movesReduce},
		{"reduce.useful_frac", "frac", "higher", 0, movesReduce},
		{"reduce.kept_frac", "frac", "lower", 0, movesReduce},
		{"replay.hit_frac", "frac", "higher", 0, movesReduce},
		{"replay.mean_suffix", "count", "lower", 0, movesReduce},
		{"dedup.ms", "ms", "lower", 0, "nothing (under 0.1% share); reported so a regression shows"},
		{"dedup.buckets", "count", "higher", 0, "nothing; the campaign's result size"},
		{"bisect.cases", "count", "lower", 0, movesBisect},
		{"bisect.ms", "ms", "lower", 0, movesBisect},
		{"bisect.probes", "count", "lower", 0, movesBisect},
		{"bisect.probes_per_case", "count", "lower", 0, movesBisect},
		{"bisect.hit_frac", "frac", "higher", 0, movesBisect},
		{"bisect.compiles", "count", "lower", 0, movesBisect},
		{"bisect.exact_frac", "frac", "higher", 0, movesBisect},
		{"store.put_calls", "count", "lower", 0, movesStore},
		{"store.put_ms", "ms", "lower", 0, movesStore},
		{"store.put_dedup_frac", "frac", "higher", 0, movesStore},
		{"store.get_calls", "count", "lower", 0, movesStore},
		{"store.get_ms", "ms", "lower", 0, movesStore},
		{"store.journal_records", "count", "lower", 0, movesStore},
		{"memo.open_ms", "ms", "lower", 0, movesMemo},
		{"memo.hit_frac", "frac", "higher", 0, movesMemo},
		{"memo.hits", "count", "higher", 0, movesMemo},
		{"memo.spills", "count", "lower", 0, movesMemo},
		{"memo.spills_dropped", "count", "lower", 0, movesMemo},
		{"memo.mb", "MB", "lower", 0, movesMemo},
		{"cluster.shards", "count", "lower", 0, movesCluster},
		{"cluster.requeued", "count", "lower", 0, movesCluster},
		{"cluster.duplicate", "count", "lower", 0, movesCluster},
		{"cluster.round_trips", "count", "lower", 0, movesCluster + ", wire_kb on cluster"},
		{"cluster.sync_ms", "ms", "lower", 0, movesCluster},
		{"cluster.wire_frac", "frac", "lower", 0, "wire_kb on cluster"},
		{"cluster.blob_dedup_frac", "frac", "higher", 0, "wire_kb on cluster"},
		{"cluster.prefetched_frac", "frac", "higher", 0, movesCluster},
		{"wire_kb", "KB", "lower", 0, "campaign_s on cluster; 0 on standalone workloads"},
		{"service.jobs", "count", "lower", 0, "failed_frac"},
		{"service.retried", "count", "lower", 0, "failed_frac"},
		{"service.failed", "count", "lower", 0, "failed_frac"},
		{"failed_frac", "frac", "lower", 0, "the run's failed count; 0 when every output matches the reference"},
		{"share.base_ms", "ms", "lower", 0, "the base of every share.*: traced busy ms of one campaign"},
	}...)
	for _, s := range []string{"fuzz", "classify", "reduce", "dedup", "bisect", "store", "reduce_dedup"} {
		m = append(m, metricDef{"share." + s, "frac", "lower", 0, movesShare})
	}
	return append(m, metricDef{"trace.overhead_frac", "frac", "lower", 0, "nothing; traced over untraced campaign_s, minus 1"})
}()

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints every metric of defs as "name value unit" lines, then the
// result object as the last line.
func emit(w io.Writer, defs []metricDef, values map[string]float64, res result) error {
	res.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "metric %-32s %14.6f %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// listMetrics prints the catalogue: every metric with its unit and
// direction, the end-to-end bounds, and what each layer metric should move.
func listMetrics(w io.Writer) {
	fmt.Fprintln(w, "end-to-end (median over a run's operations, tracing off):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-28s %-6s %-6s bound %.2f\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Fprintln(w, "per-layer (traced run) -> what it should move:")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-28s %-6s %-6s -> %s\n", d.Name, d.Unit, d.Better, d.Moves)
	}
}

// median returns the median of xs (NaN for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// frac returns num/den, 0 when den is 0 (a layer the workload does not
// exercise).
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// samples collects per-operation values by metric name.
type samples map[string][]float64

func (s samples) add(vals map[string]float64) {
	for k, v := range vals {
		s[k] = append(s[k], v)
	}
}

func (s samples) medians() map[string]float64 {
	out := make(map[string]float64, len(s))
	for k, v := range s {
		out[k] = median(v)
	}
	return out
}
