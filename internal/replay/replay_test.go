package replay_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"spirvfuzz/internal/corpus"
	"spirvfuzz/internal/fuzz"
	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/reduce"
	"spirvfuzz/internal/replay"
	"spirvfuzz/internal/spirv"
)

// sequences fuzzes a few corpus references into transformation sequences the
// tests replay. Built once: generation is the slow part.
var (
	seqOnce sync.Once
	seqs    []seqCase
)

type seqCase struct {
	mod    *spirv.Module
	inputs interp.Inputs
	ts     []fuzz.Transformation
}

func sequences(t *testing.T) []seqCase {
	t.Helper()
	seqOnce.Do(func() {
		donors := corpus.Donors()
		refs := corpus.References()
		for seed := int64(1); seed <= 4; seed++ {
			item := refs[int(seed)%len(refs)]
			res, err := fuzz.Fuzz(item.Mod, item.Inputs, fuzz.Options{
				Seed: seed, Donors: donors, EnableRecommendations: true,
				MinPasses: 20, MaxPasses: 30,
			})
			if err != nil {
				continue
			}
			if len(res.Transformations) >= 8 {
				seqs = append(seqs, seqCase{item.Mod, item.Inputs, res.Transformations})
			}
		}
	})
	if len(seqs) == 0 {
		t.Fatal("fuzzing produced no usable sequences")
	}
	return seqs
}

// randomKeep draws a sorted random subset of [0, n).
func randomKeep(rng *rand.Rand, n int) []int {
	var keep []int
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			keep = append(keep, i)
		}
	}
	return keep
}

// mustMatchFresh replays keep through the session and freshly and fails the
// test on any divergence: applied indices, module binary encoding, or inputs.
func mustMatchFresh(t *testing.T, sc seqCase, sess *replay.Session, keep []int) {
	t.Helper()
	got, gotApplied := sess.Replay(keep)
	// The fresh replay uses the session's current transformations so the
	// check also holds after Commit.
	cur := make([]fuzz.Transformation, sess.Len())
	for i := range cur {
		cur[i] = sess.At(i)
	}
	want, wantApplied := fuzz.ReplaySubsequenceContext(sc.mod, sc.inputs, cur, keep)
	if len(gotApplied) != len(wantApplied) {
		t.Fatalf("applied %v, want %v (keep %v)", gotApplied, wantApplied, keep)
	}
	for i := range gotApplied {
		if gotApplied[i] != wantApplied[i] {
			t.Fatalf("applied %v, want %v (keep %v)", gotApplied, wantApplied, keep)
		}
	}
	if !bytes.Equal(got.Mod.EncodeBytes(), want.Mod.EncodeBytes()) {
		t.Fatalf("module diverged for keep %v", keep)
	}
	ge, err1 := interp.EncodeInputs(got.Inputs)
	we, err2 := interp.EncodeInputs(want.Inputs)
	if err1 != nil || err2 != nil || !bytes.Equal(ge, we) {
		t.Fatalf("inputs diverged for keep %v (%v, %v)", keep, err1, err2)
	}
}

// TestReplayMatchesFreshRandomSubsets is the core bitwise-identity property:
// for random transformation sequences and random keep-subsets, prefix-cached
// replay equals fresh ReplaySubsequenceContext exactly, at every budget —
// default, snapshot-thrashing tiny, and disabled.
func TestReplayMatchesFreshRandomSubsets(t *testing.T) {
	budgets := []struct {
		name   string
		budget int64
	}{
		{"default", replay.DefaultBudget},
		{"tiny", 64 << 10},
		{"disabled", 0},
	}
	for _, b := range budgets {
		t.Run(b.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			eng := replay.NewEngine(b.budget)
			for _, sc := range sequences(t) {
				sess := eng.NewSession(sc.mod, sc.inputs, sc.ts)
				for trial := 0; trial < 25; trial++ {
					mustMatchFresh(t, sc, sess, randomKeep(rng, len(sc.ts)))
				}
				// Repeating a keep-set exactly must hit the full-depth
				// snapshot and still agree.
				keep := randomKeep(rng, len(sc.ts))
				mustMatchFresh(t, sc, sess, keep)
				mustMatchFresh(t, sc, sess, keep)
			}
			if b.budget == 0 {
				if st := eng.Stats(); st.Snapshots != 0 {
					t.Fatalf("disabled engine cached %d snapshots", st.Snapshots)
				}
			}
		})
	}
}

// TestReplayConcurrentMatchesFresh hammers one shared session from many
// goroutines (run under -race) and checks every result against a fresh
// replay computed in the same goroutine.
func TestReplayConcurrentMatchesFresh(t *testing.T) {
	sc := sequences(t)[0]
	eng := replay.NewEngine(replay.DefaultBudget)
	sess := eng.NewSession(sc.mod, sc.inputs, sc.ts)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for trial := 0; trial < 15; trial++ {
				keep := randomKeep(rng, len(sc.ts))
				got, _ := sess.Replay(keep)
				want, _ := fuzz.ReplaySubsequenceContext(sc.mod, sc.inputs, sc.ts, keep)
				if !bytes.Equal(got.Mod.EncodeBytes(), want.Mod.EncodeBytes()) {
					errs <- "module diverged under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if st := eng.Stats(); st.Hits == 0 {
		t.Fatal("concurrent replays never hit the cache; test is vacuous")
	}
}

// TestReplayOverrideAndCommit checks the shrink-probe path: overriding one
// slot for a query equals a fresh replay of the modified sequence, the
// override does not leak into subsequent plain replays, and Commit makes it
// permanent while older prefix snapshots stay valid.
func TestReplayOverrideAndCommit(t *testing.T) {
	sc := sequences(t)[0]
	eng := replay.NewEngine(replay.DefaultBudget)
	sess := eng.NewSession(sc.mod, sc.inputs, sc.ts)
	rng := rand.New(rand.NewSource(7))

	keep := make([]int, len(sc.ts))
	for i := range keep {
		keep[i] = i
	}
	// Warm the cache with full and partial replays.
	mustMatchFresh(t, sc, sess, keep)
	mustMatchFresh(t, sc, sess, randomKeep(rng, len(sc.ts)))

	slot := len(sc.ts) / 2
	override := &fuzz.AddConstantBoolean{Fresh: sc.mod.Bound + 7000, Value: true}

	// Probe with the override: equals fresh replay of the modified sequence.
	got, _ := sess.ReplayOverride(keep, slot, override)
	mod := append([]fuzz.Transformation(nil), sc.ts...)
	mod[slot] = override
	want, _ := fuzz.ReplaySubsequenceContext(sc.mod, sc.inputs, mod, keep)
	if !bytes.Equal(got.Mod.EncodeBytes(), want.Mod.EncodeBytes()) {
		t.Fatal("override probe diverged from fresh replay of modified sequence")
	}

	// The probe must not have contaminated the unmodified sequence's cache.
	mustMatchFresh(t, sc, sess, keep)

	// Commit, then plain replays must reflect the new transformation.
	sess.Commit(slot, override)
	got2, _ := sess.Replay(keep)
	if !bytes.Equal(got2.Mod.EncodeBytes(), want.Mod.EncodeBytes()) {
		t.Fatal("post-commit replay does not reflect the committed override")
	}
	mustMatchFresh(t, sc, sess, randomKeep(rng, len(sc.ts)))

	// An override at a slot absent from keep degrades to a plain replay.
	partial := keep[:slot]
	got3, _ := sess.ReplayOverride(partial, len(sc.ts)-1, override)
	want3, _ := sess.Replay(partial)
	if !bytes.Equal(got3.Mod.EncodeBytes(), want3.Mod.EncodeBytes()) {
		t.Fatal("override outside keep changed the result")
	}
}

// TestReplayStatsAndEviction exercises the counters and the byte budget: a
// tiny engine must evict and keep total bytes bounded; hits must accumulate
// on repeated overlapping queries.
func TestReplayStatsAndEviction(t *testing.T) {
	sc := sequences(t)[0]
	eng := replay.NewEngine(96 << 10)
	sess := eng.NewSession(sc.mod, sc.inputs, sc.ts)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		sess.Replay(randomKeep(rng, len(sc.ts)))
	}
	st := eng.Stats()
	if st.Queries != 40 {
		t.Fatalf("queries %d, want 40", st.Queries)
	}
	if st.Hits+st.Misses != st.Queries {
		t.Fatalf("hits %d + misses %d != queries %d", st.Hits, st.Misses, st.Queries)
	}
	if st.Evictions == 0 {
		t.Fatal("tiny budget never evicted; sizing is off")
	}
	if st.Bytes > 2*(96<<10) {
		t.Fatalf("cached bytes %d far exceed budget", st.Bytes)
	}
	if st.Applied > st.Requested {
		t.Fatalf("applied %d > requested %d", st.Applied, st.Requested)
	}
	if st.MeanSuffix() > st.MeanRequested() {
		t.Fatal("mean suffix exceeds mean request size")
	}
}

// TestSessionVerify covers the Verify debugging helper.
func TestSessionVerify(t *testing.T) {
	sc := sequences(t)[0]
	sess := replay.NewEngine(replay.DefaultBudget).NewSession(sc.mod, sc.inputs, sc.ts)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		if !sess.Verify(randomKeep(rng, len(sc.ts))) {
			t.Fatal("Verify reported divergence on an honest session")
		}
	}
}

// contextDigest hashes everything a snapshot holds that a reader could
// change: the module's encoding, the inputs and the fact set.
func contextDigest(t *testing.T, c *fuzz.Context) [sha256.Size]byte {
	t.Helper()
	in, err := interp.EncodeInputs(c.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(c.Mod.EncodeBytes())
	h.Write(in)
	fmt.Fprint(h, c.Facts.DeadBlocks(), c.Facts.IrrelevantIDs(), c.Facts.IrrelevantPointees(), c.Facts.ApproxBytes())
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// TestSnapshotsStayUnchangedUnderParallelReduction pins the read-only
// contract of replayed contexts: every snapshot is digested as it is
// stored, a parallel reduction then hands full hits and full-depth records
// to concurrent oracles, and at the end every snapshot still has its
// insert-time digest. Run under -race, it also catches a write to a shared
// context.
func TestSnapshotsStayUnchangedUnderParallelReduction(t *testing.T) {
	eng := replay.NewEngine(replay.DefaultBudget)
	var mu sync.Mutex
	digests := map[*fuzz.Context][sha256.Size]byte{}
	replay.OnInsert(eng, func(c *fuzz.Context) {
		d := contextDigest(t, c)
		mu.Lock()
		defer mu.Unlock()
		if old, ok := digests[c]; ok && old != d {
			t.Error("a stored context changed before it was stored again")
		}
		digests[c] = d
	})
	for _, sc := range sequences(t) {
		// Interesting while the variant keeps at least a third of the
		// instructions the whole sequence adds: a monotone test that keeps
		// a real subset and reads every module it gets.
		full, _ := fuzz.ReplaySubsequenceContext(sc.mod, sc.inputs, sc.ts, seqIdx(len(sc.ts)))
		base := sc.mod.InstructionCount()
		need := (full.Mod.InstructionCount() - base) / 3
		interesting := func(m *spirv.Module, in interp.Inputs) bool {
			_ = m.Fingerprint()
			_, _ = interp.EncodeInputs(in)
			return m.InstructionCount()-base >= need
		}
		res := reduce.ReduceParallelReplay(sc.mod, sc.inputs, sc.ts, interesting, 4, eng)
		if !interesting(res.Variant, res.Inputs) {
			t.Fatal("the reduced variant is not interesting")
		}
	}
	st := eng.Stats()
	if st.FullHits == 0 || len(digests) == 0 {
		t.Fatalf("no full hits (%d) or no snapshots (%d): the test is vacuous", st.FullHits, len(digests))
	}
	for c, d := range digests {
		if contextDigest(t, c) != d {
			t.Fatal("a snapshot changed after it was stored")
		}
	}
}

// seqIdx returns [0, n).
func seqIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
