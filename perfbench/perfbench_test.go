package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricCatalogue(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	var maxBound float64
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("layer metric %s does not say what it should move", d.Name)
		}
	}
	setup := endToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != maxBound {
		t.Errorf("setup_s must be in seconds, lower is better, with the largest bound: %+v", setup)
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root lists
// exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	if !reflect.DeepEqual(bj.Paths, []string{"perfbench"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	var want []entry
	for _, w := range workloads {
		want = append(want, entry{Name: w.name, Why: w.why})
	}
	if !reflect.DeepEqual(bj.Workloads, want) {
		t.Errorf("workloads = %+v\nwant %+v", bj.Workloads, want)
	}
	want = nil
	for _, d := range endToEnd {
		b := d.Bound
		want = append(want, entry{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &b})
	}
	if !reflect.DeepEqual(bj.EndToEnd, want) {
		t.Errorf("end_to_end differs from the catalogue")
	}
	want = nil
	for _, d := range perLayer {
		want = append(want, entry{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	if !reflect.DeepEqual(bj.PerLayer, want) {
		t.Errorf("per_layer differs from the catalogue")
	}
}

func TestCheckLoad(t *testing.T) {
	for _, w := range workloads {
		if err := w.checkLoad(2); err != nil {
			t.Errorf("%s refused at nproc 2: %v", w.name, err)
		}
		if err := w.checkLoad(1); err == nil {
			t.Errorf("%s accepted at nproc 1 with %d engine workers", w.name, w.engineWorkers())
		}
	}
}

// tiny shrinks a workload so one operation takes a fraction of a second.
func tiny(t *testing.T, name string) workload {
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	w.tests = 8
	if w.capPer > 0 {
		w.capPer = w.tests
	}
	return w
}

// measureOnce runs one round of the closed loop against ref.
func measureOnce(t *testing.T, w workload, traced bool, ref string) result {
	t.Helper()
	b := &bench{w: w, spec: w.spec(3), dir: t.TempDir(), trace: traced, log: io.Discard}
	res, _, err := b.measure(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReferenceCheck shows that operations (untraced, traced and on the
// cluster) reproduce the tree-walker reference, and that the check fails
// every operation against a corrupted reference.
func TestReferenceCheck(t *testing.T) {
	for _, name := range []string{"deep", "warm", "cluster"} {
		t.Run(name, func(t *testing.T) {
			w := tiny(t, name)
			ref, err := reference(context.Background(), w, w.spec(3), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			res := measureOnce(t, w, true, ref)
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Fatalf("against the true reference: %+v", res)
			}
			bad := []byte(ref)
			bad[0] ^= 1
			res = measureOnce(t, w, true, string(bad))
			if res.Correct || res.Failed != res.Attempted {
				t.Fatalf("against a corrupted reference: %+v", res)
			}
		})
	}
}

func TestEmitLastLine(t *testing.T) {
	values := map[string]float64{}
	for i, d := range endToEnd {
		values[d.Name] = float64(i) + 0.5
	}
	var out bytes.Buffer
	if err := emit(&out, endToEnd, values, result{Correct: true, Attempted: 3}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	if len(keys) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("result keys = %v", keys)
	}
	delete(values, "cpu_s")
	if err := emit(io.Discard, endToEnd, values, result{}); err == nil {
		t.Error("emit accepted a missing metric")
	}
}

func TestCovered(t *testing.T) {
	ms := time.Millisecond
	got := covered([][2]time.Duration{{5 * ms, 7 * ms}, {0, 2 * ms}, {ms, 3 * ms}, {6 * ms, 9 * ms}})
	if got != 7*ms {
		t.Errorf("covered = %v, want 7ms", got)
	}
}
