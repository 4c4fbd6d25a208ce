GO ?= go

.PHONY: ci fmt vet build test test-bisect test-daemon test-cluster test-memo test-transport fuzz-smoke bench baseline bench-compare profile

# Everything CI runs, in order; fails fast.
ci: fmt vet build test test-bisect test-daemon test-cluster test-memo test-transport fuzz-smoke bench

# The bisection oracle gets its own race pass: the determinism property
# (FirstBad identical at any worker count, lane width, or cache temperature)
# plus the torn-journal /bisect resume and the cluster-sharded bisect merge.
test-bisect:
	$(GO) test -race -shuffle=on ./internal/bisect/... ./internal/dedup/...
	$(GO) test -race -count=1 -run 'Bisect|Precheck' ./internal/service/... ./internal/cluster/...

# The daemon's durability layers get a dedicated race pass on top of the
# repo-wide one: -shuffle varies the journal/queue interleavings between
# runs, which is where torn-tail and drain races would hide.
test-daemon:
	$(GO) vet ./...
	$(GO) test -race -shuffle=on ./internal/service/... ./internal/store/...

# The distributed layer gets the same treatment, plus the real-process
# cluster e2e: a coordinator with worker processes (one SIGKILLed and
# replaced mid-campaign) must merge to buckets bitwise-identical to a
# standalone daemon's.
test-cluster:
	$(GO) test -race -shuffle=on ./internal/cluster/...
	$(GO) test -count=1 -run 'TestSpirvdCluster|TestSpirvdCoordinatorLocalNodes' .

# The pipelined transport gets a dedicated race pass: the bitwise-identity
# matrix (prefetch on and off × node count must all merge the same buckets),
# lease-steal and kill-mid-prefetch fault injection with the duplicate-report
# guard, the gzip wire accounting round trip, and the jittered idle backoff
# ladder.
test-transport:
	$(GO) test -race -count=1 -run 'Pipeline|Prefetch|LeaseSteal|Transport|Backoff' ./internal/cluster/...
	$(GO) test -count=1 -run 'TestSpirvdClusterKillRejoin' .

# The persistent memo tier gets its own race pass: the segment/index/
# checkpoint durability suite (with -shuffle varying the spill/evict/
# compact interleavings), the runner's key-derivation and payload codecs,
# the service-level memo temperature identity, and the cluster warm-sync
# handshake.
test-memo:
	$(GO) test -race -shuffle=on ./internal/memostore/...
	$(GO) test -race -count=1 -run 'Memo' ./internal/runner/... ./internal/service/... ./internal/cluster/...

# Each native fuzz target runs for a few seconds past its seed corpus and
# the committed regression inputs under its package's testdata/fuzz/. A
# failing input is written there; commit it together with its fix.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeValidate$$' -fuzztime 5s ./internal/spirv/validate
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRender$$' -fuzztime 5s ./internal/interp
	$(GO) test -run '^$$' -fuzz '^FuzzStoreOpen$$' -fuzztime 5s ./internal/store

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# One pass over every benchmark as a smoke test; the table/figure benches
# assert the paper's comparative shape even at -short scale. -benchmem
# records allocs/op and B/op so allocation regressions are visible in the
# same trajectory JSONs as the timing ratios. -p 1 serializes the package
# binaries: without it, go test builds and runs sibling packages while the
# root package's benchmarks execute, and the contention skews every
# cold/warm ratio the guards below care about.
bench:
	$(GO) test -short -run '^$$' -bench . -benchtime=1x -benchmem -p 1 ./...

# Regenerate BENCH_baseline.json from a fresh -short benchmark pass so perf
# regressions can be diffed against a committed reference.
baseline:
	$(GO) test -short -run '^$$' -bench . -benchtime=1x -benchmem -p 1 ./... \
		| awk -f scripts/bench2json.awk > BENCH_baseline.json
	@echo wrote BENCH_baseline.json

# Run the reduction/resume/batching/interpreter benchmarks and fail if any
# speedup metric (parallel reduction over serial; prefix-snapshot replay over
# fresh replay; journal resume over a fresh campaign; batched RunAll over a
# per-target compile loop; the register VM over the tree-walker; lane-mode
# rendering over the scalar VM; a warm memo repeat campaign over cold; the
# pipelined cluster worker loop over the serial one) regresses below 0.75x
# its value in the committed BENCH_pr13.json trajectory point — loose enough
# for machine noise, tight enough to catch a disabled cache, a resume that
# silently re-runs journaled work, compile sharing gone, the VM degenerating
# to tree-walker speed, lane mode losing its amortization, or shard prefetch
# no longer overlapping sync with execution (speedup ~1.0). A second pass guards absolute
# parallel-reduction time: ns/op must not blow past 1.5x the recorded
# value. A third guards lane-render allocations: allocs/op above 1.5x
# baseline means the lane buffer reuse across tiles broke. A fourth guards
# bytes allocated by the reduction campaign and the VM render loop: B/op
# above 1.5x baseline means a per-render or per-probe allocation (the VM's
# value arena, cell stores, fingerprint encoding) came back. The ratio
# metrics are the tight guards (they cancel machine speed); the absolute
# bounds are backstops against wholesale regressions that leave the
# internal ratios intact. Two final passes guard hit fractions: the cold
# cache-hit fraction of BenchmarkBisectCampaign falling below 0.95x
# baseline means bisect probes stopped reusing compile keys, and the
# warm-hit-frac of BenchmarkMemoWarmCampaign falling below 0.95x means the
# persistent memo tier stopped serving a warm repeat from disk. The last two
# passes guard the pipelined cluster transport in max mode: wire-kb (total
# bytes on the wire of BenchmarkClusterPipeline's pipelined 3-node leg)
# above 1.5x baseline means batching or compression silently stopped
# shrinking the sync protocol, and pipelined-ms (that leg's wall time under
# 20 ms injected latency) above 1.5x means the pipeline stopped hiding
# round trips. BENCH_pr13.json is a three-pass merge keeping each guarded
# metric's worst value in its gate direction.
bench-compare:
	$(GO) test -short -run '^$$' -bench 'Reduce|Replay|Resume|RunAll|InterpVM|Cluster|Bisect|Memo' -benchtime=1x -benchmem . \
		| tee /dev/stderr | awk -f scripts/bench2json.awk > /tmp/bench-current.json
	$(GO) run ./scripts/benchcompare -baseline BENCH_pr13.json \
		-current /tmp/bench-current.json
	$(GO) run ./scripts/benchcompare -baseline BENCH_pr13.json \
		-current /tmp/bench-current.json -metric ns/op -mode max -tolerance 1.5 \
		-only BenchmarkRunnerParallelReduce
	$(GO) run ./scripts/benchcompare -baseline BENCH_pr13.json \
		-current /tmp/bench-current.json -metric allocs/op -mode max -tolerance 1.5 \
		-only BenchmarkInterpVMLanes/uniform/l8
	$(GO) run ./scripts/benchcompare -baseline BENCH_pr13.json \
		-current /tmp/bench-current.json -metric B/op -mode max -tolerance 1.5 \
		-only BenchmarkRunnerParallelReduce,BenchmarkInterpVM
	$(GO) run ./scripts/benchcompare -baseline BENCH_pr13.json \
		-current /tmp/bench-current.json -metric dedup-frac -mode min -tolerance 0.95 \
		-only BenchmarkClusterCampaign
	$(GO) run ./scripts/benchcompare -baseline BENCH_pr13.json \
		-current /tmp/bench-current.json -metric hit-frac -mode min -tolerance 0.95 \
		-only BenchmarkBisectCampaign
	$(GO) run ./scripts/benchcompare -baseline BENCH_pr13.json \
		-current /tmp/bench-current.json -metric warm-hit-frac -mode min -tolerance 0.95 \
		-only BenchmarkMemoWarmCampaign
	$(GO) run ./scripts/benchcompare -baseline BENCH_pr13.json \
		-current /tmp/bench-current.json -metric wire-kb -mode max -tolerance 1.5 \
		-only BenchmarkClusterPipeline
	$(GO) run ./scripts/benchcompare -baseline BENCH_pr13.json \
		-current /tmp/bench-current.json -metric pipelined-ms -mode max -tolerance 1.5 \
		-only BenchmarkClusterPipeline

# CPU- and memory-profile the parallel-reduction campaign benchmark and
# print the top-10 functions by flat CPU time and by bytes allocated — the
# quick answer to "where do campaign cycles go", and to how much of them is
# allocation and GC.
profile:
	$(GO) test -short -run '^$$' -bench 'RunnerParallelReduce' -benchtime=1x \
		-cpuprofile /tmp/spirvfuzz-cpu.pprof -memprofile /tmp/spirvfuzz-mem.pprof \
		-o /tmp/spirvfuzz-bench.test .
	$(GO) tool pprof -top -nodecount=10 /tmp/spirvfuzz-bench.test /tmp/spirvfuzz-cpu.pprof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space \
		/tmp/spirvfuzz-bench.test /tmp/spirvfuzz-mem.pprof
