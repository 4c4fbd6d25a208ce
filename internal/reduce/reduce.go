// Package reduce implements the spirv-fuzz reducer of Section 3.4: delta
// debugging over the bug-inducing transformation sequence against an
// interestingness test, followed by the spirv-reduce-style shrinking of any
// remaining AddFunction bodies. It also provides the hand-off that turns a
// reduced outcome into reduction-quality measurements (Section 4.2).
package reduce

import (
	"context"

	"spirvfuzz/internal/core"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/spirv"
	"spirvfuzz/internal/target"
)

// Interestingness is the Section 3.4 interestingness test: given a variant
// module and the inputs it executes on (input-modifying transformations may
// have changed them in sync with the module), it reports whether the bug
// still appears to be triggered. Tests built by the *On constructors are safe
// for concurrent calls, which ReduceParallel relies on. The module and inputs
// are read-only: a replay may share them with its snapshot cache and with
// concurrent queries.
type Interestingness func(variant *spirv.Module, in interp.Inputs) bool

// Runner abstracts target execution so reductions can route through a shared
// memoizing engine (runner.Engine satisfies this); ddmin probes many
// overlapping candidate subsets whose replays collapse to identical modules.
type Runner interface {
	Run(tg *target.Target, m *spirv.Module, in interp.Inputs) (*interp.Image, *target.Crash)
}

// directRunner executes targets with no pooling or caching.
type directRunner struct{}

func (directRunner) Run(tg *target.Target, m *spirv.Module, in interp.Inputs) (*interp.Image, *target.Crash) {
	return tg.Run(m, in)
}

// CrashInterestingness builds the interestingness test for a crash bug: the
// target must crash with the same signature.
func CrashInterestingness(tg *target.Target, in interp.Inputs, signature string) Interestingness {
	return CrashInterestingnessOn(directRunner{}, tg, in, signature)
}

// CrashInterestingnessOn is CrashInterestingness with target runs routed
// through r.
func CrashInterestingnessOn(r Runner, tg *target.Target, _ interp.Inputs, signature string) Interestingness {
	return func(variant *spirv.Module, in interp.Inputs) bool {
		_, crash := r.Run(tg, variant, in)
		return crash != nil && crash.Signature == signature
	}
}

// MiscompilationInterestingness builds the test for a miscompilation: the
// image rendered via the variant (on its inputs) must still differ from the
// image rendered via the original on the original inputs (Section 3.4's
// image-pair comparison).
func MiscompilationInterestingness(tg *target.Target, origIn interp.Inputs, original *spirv.Module) Interestingness {
	return MiscompilationInterestingnessOn(directRunner{}, tg, origIn, original)
}

// MiscompilationInterestingnessOn is MiscompilationInterestingness with
// target runs routed through r.
func MiscompilationInterestingnessOn(r Runner, tg *target.Target, origIn interp.Inputs, original *spirv.Module) Interestingness {
	origImg, origCrash := r.Run(tg, original, origIn)
	return func(variant *spirv.Module, in interp.Inputs) bool {
		if origCrash != nil {
			return false
		}
		img, crash := r.Run(tg, variant, in)
		return crash == nil && img != nil && !img.Equal(origImg)
	}
}

// ForOutcome builds the appropriate interestingness test for a bug outcome.
func ForOutcome(tg *target.Target, original *spirv.Module, in interp.Inputs, signature string) Interestingness {
	return ForOutcomeOn(directRunner{}, tg, original, in, signature)
}

// ForOutcomeOn is ForOutcome with target runs routed through r.
func ForOutcomeOn(r Runner, tg *target.Target, original *spirv.Module, in interp.Inputs, signature string) Interestingness {
	if signature == target.MiscompilationSignature {
		return MiscompilationInterestingnessOn(r, tg, in, original)
	}
	return CrashInterestingnessOn(r, tg, in, signature)
}

// Result is the outcome of a reduction.
type Result struct {
	// Kept are the indices of the original sequence that remain.
	Kept []int
	// Sequence is the minimized transformation sequence.
	Sequence []fuzz.Transformation
	// Variant is the reduced variant module, and Inputs the inputs it
	// executes on. Both come from a replay and are read-only: they may be
	// shared with the replay engine's snapshot cache.
	Variant *spirv.Module
	Inputs  interp.Inputs
	// Delta is the size of the final delta: the difference in instruction
	// counts between the original module and the reduced variant — the
	// reduction-quality measure of Section 4.2.
	Delta int
	// Queries counts interestingness-test invocations.
	Queries int
}

// Reduce minimizes the transformation sequence of a bug-inducing variant.
// It runs delta debugging to 1-minimality, then applies the spirv-reduce
// analogue to shrink remaining AddFunction bodies.
func Reduce(original *spirv.Module, in interp.Inputs, ts []fuzz.Transformation, interesting Interestingness) *Result {
	return ReduceParallel(original, in, ts, interesting, 1)
}

// ReduceParallel is Reduce with speculative parallel delta debugging
// (core.ReduceParallel): chunk candidates of one ddmin pass are replayed and
// tested on up to workers goroutines, and the earliest interesting removal in
// scan order is committed, so the kept indices — and therefore the reduced
// sequence and variant — are bitwise-identical to serial Reduce for every
// worker count. interesting must be safe for concurrent calls when
// workers > 1 (tests built by the *On constructors over a runner.Engine are).
//
// Replays run through a private prefix-snapshot cache (internal/replay) with
// the default byte budget; use ReduceParallelReplay to share one engine — and
// its statistics — across reductions.
func ReduceParallel(original *spirv.Module, in interp.Inputs, ts []fuzz.Transformation, interesting Interestingness, workers int) *Result {
	return ReduceParallelReplay(original, in, ts, interesting, workers, replay.NewEngine(replay.DefaultBudget))
}

// ReduceParallelReplay is ReduceParallel with replays routed through reng's
// prefix-snapshot cache (nil or zero-budget disables caching: every query
// replays from scratch). Snapshots are shared across the speculative workers
// of one ddmin wave and across reductions sharing the engine; caching changes
// replay cost only, never replay results, so kept indices stay
// bitwise-identical to serial fresh-replay reduction.
func ReduceParallelReplay(original *spirv.Module, in interp.Inputs, ts []fuzz.Transformation, interesting Interestingness, workers int, reng *replay.Engine) *Result {
	res, _ := ReduceParallelReplayCtx(context.Background(), original, in, ts, interesting, workers, reng)
	return res
}

// ReduceParallelReplayCtx is ReduceParallelReplay with cancellation: a done
// ctx aborts the ddmin waves and the shrink probes promptly (in-flight
// interestingness queries finish; no new ones start) and returns ctx.Err()
// alongside a best-effort Result — the sequence as minimized so far, which
// is still interesting, merely not 1-minimal. Callers that need all-or-
// nothing semantics (the spirvd job pipeline) discard the Result on error;
// interactive callers (spirv-reduce under Ctrl-C) may keep it.
func ReduceParallelReplayCtx(ctx context.Context, original *spirv.Module, in interp.Inputs, ts []fuzz.Transformation, interesting Interestingness, workers int, reng *replay.Engine) (*Result, error) {
	sess := reng.NewSession(original, in, ts)
	test := func(keep []int) bool {
		c, _ := sess.Replay(keep)
		return interesting(c.Mod, c.Inputs)
	}
	kept, st, err := core.ReduceParallelCtx(ctx, len(ts), test, workers)
	queries := st.Queries
	if err == nil {
		var shrinkQueries int
		shrinkQueries, err = shrinkAddFunctions(ctx, sess, kept, interesting)
		queries += shrinkQueries
	}
	// The minimized keep-set was already replayed by the last successful
	// query (and the shrink probes recorded its prefix snapshots), so this
	// final replay is served from the cache instead of re-applying the whole
	// sequence.
	c, _ := sess.Replay(kept)
	return &Result{
		Kept:     kept,
		Sequence: sess.Sequence(kept),
		Variant:  c.Mod,
		Inputs:   c.Inputs,
		Delta:    c.Mod.InstructionCount() - original.InstructionCount(),
		Queries:  queries,
	}, err
}

// shrinkAddFunctions is the spirv-reduce post-pass (Section 3.4): donated
// functions sometimes carry more instructions than the bug needs, and
// AddFunction is the one transformation that could not be split into smaller
// transformations. For each remaining AddFunction, try deleting body
// instructions whose results nothing in the encoded function uses.
//
// Each probe overrides the AddFunction's slot in the replay session rather
// than copying the whole candidate sequence: the prefix before the slot is
// served from the snapshot cache and only the AddFunction and its suffix are
// re-applied. Accepted shrinks are committed into the session, which keeps
// prefix snapshots below the slot valid.
//
// Slots are processed in descending order: a probe re-applies every kept
// transformation after its slot, so shrinking the later AddFunctions first
// means earlier slots' probes replay already-shrunk (cheaper) versions of
// them instead of the full originals.
func shrinkAddFunctions(ctx context.Context, sess *replay.Session, kept []int, interesting Interestingness) (int, error) {
	queries := 0
	for ki := len(kept) - 1; ki >= 0; ki-- {
		slot := kept[ki]
		af, ok := sess.At(slot).(*fuzz.AddFunction)
		if !ok {
			continue
		}
		for {
			if err := ctx.Err(); err != nil {
				return queries, err
			}
			shrunk, changed := dropOneDeadInstr(af)
			if !changed {
				break
			}
			c, _ := sess.ReplayOverride(kept, slot, shrunk)
			queries++
			if !interesting(c.Mod, c.Inputs) {
				break
			}
			af = shrunk
			sess.Commit(slot, shrunk)
		}
	}
	return queries, nil
}

// dropOneDeadInstr returns a copy of af with one unused-result body
// instruction removed, or (af, false) if none can be removed.
func dropOneDeadInstr(af *fuzz.AddFunction) (*fuzz.AddFunction, bool) {
	used := map[spirv.ID]bool{}
	scan := func(e fuzz.EncodedInstr) {
		ins, ok := e.Decode()
		if !ok {
			return
		}
		ins.Uses(func(id spirv.ID) { used[id] = true })
	}
	scan(af.Def)
	for _, p := range af.Params {
		scan(p)
	}
	for _, b := range af.Blocks {
		for _, p := range b.Phis {
			scan(p)
		}
		for _, ins := range b.Body {
			scan(ins)
		}
		if b.Merge != nil {
			scan(*b.Merge)
		}
		scan(b.Term)
	}
	for bi, b := range af.Blocks {
		for ii, e := range b.Body {
			ins, ok := e.Decode()
			if !ok || ins.Result == 0 || used[ins.Result] || ins.Op.HasSideEffects() || ins.Op == spirv.OpVariable {
				continue
			}
			clone := *af
			clone.Blocks = append([]fuzz.EncodedBlock{}, af.Blocks...)
			nb := clone.Blocks[bi]
			nb.Body = append(append([]fuzz.EncodedInstr{}, b.Body[:ii]...), b.Body[ii+1:]...)
			clone.Blocks[bi] = nb
			return &clone, true
		}
	}
	return af, false
}

// ShrinkAddFunctionsForTest exposes shrinkAddFunctions to benchmarks.
func ShrinkAddFunctionsForTest(sess *replay.Session, kept []int, interesting Interestingness) int {
	queries, _ := shrinkAddFunctions(context.Background(), sess, kept, interesting)
	return queries
}
