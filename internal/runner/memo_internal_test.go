package runner

import (
	"bytes"
	"runtime"
	"testing"

	"spirvfuzz/internal/interp"
	"spirvfuzz/internal/memostore"
	"spirvfuzz/internal/target"
	"spirvfuzz/internal/testmod"
)

// The memo keys must separate layers and content: equal content maps to
// equal keys, any field change to a different key, and the result/compile
// domains never collide.
func TestMemoKeyDerivation(t *testing.T) {
	m := testmod.Diamond()
	fp := m.Fingerprint()
	k1 := key{target: "Mesa\x00v1", mod: fp, w: 8, h: 8}
	if resultMemoKey(k1) != resultMemoKey(k1) {
		t.Fatal("resultMemoKey not deterministic")
	}
	variants := []key{
		{target: "Mesa\x00v2", mod: fp, w: 8, h: 8},
		{target: "Mesa\x00v1", mod: fp, w: 9, h: 8},
		{target: "Mesa\x00v1", mod: fp, w: 8, h: 9},
		{target: "Intel\x00v1", mod: fp, w: 8, h: 8},
	}
	for i, kv := range variants {
		if resultMemoKey(kv) == resultMemoKey(k1) {
			t.Fatalf("variant %d collides with base key", i)
		}
	}
	ck := ckey{mod: fp, mut: ""}
	if compileMemoKey(ck) == compileMemoKey(ckey{mod: fp, mut: "x"}) {
		t.Fatal("mutation fingerprint ignored by compile key")
	}
	// Cross-domain separation: a compile key whose content bytes happen to
	// echo a result key still hashes into a different domain.
	if memostore.Key(resultMemoKey(k1)) == memostore.Key(compileMemoKey(ck)) {
		t.Fatal("result and compile domains collide")
	}
}

// All three legal result shapes survive the payload codec exactly.
func TestMemoResultCodec(t *testing.T) {
	img := &interp.Image{W: 2, H: 2, Pix: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}}
	cases := []struct {
		img   *interp.Image
		crash *target.Crash
	}{
		{img: img},
		{crash: &target.Crash{Signature: "Mesa: device fault: boom"}},
		{}, // offline target, no crash
	}
	for i, c := range cases {
		data, ok := encodeResult(c.img, c.crash)
		if !ok {
			t.Fatalf("case %d: encode failed", i)
		}
		gotImg, gotCrash, ok := decodeResult(data)
		if !ok {
			t.Fatalf("case %d: decode failed", i)
		}
		switch {
		case c.crash != nil:
			if gotCrash == nil || gotCrash.Signature != c.crash.Signature || gotImg != nil {
				t.Fatalf("case %d: crash round trip: %+v %+v", i, gotImg, gotCrash)
			}
		case c.img != nil:
			if gotImg == nil || gotCrash != nil || gotImg.W != c.img.W || gotImg.H != c.img.H || !bytes.Equal(gotImg.Pix, c.img.Pix) {
				t.Fatalf("case %d: image round trip: %+v", i, gotImg)
			}
		default:
			if gotImg != nil || gotCrash != nil {
				t.Fatalf("case %d: nil/nil round trip: %+v %+v", i, gotImg, gotCrash)
			}
		}
	}
	// Corrupt payloads decode to !ok, never to a wrong result.
	for name, bad := range map[string][]byte{
		"empty payload":         nil,
		"unknown shape byte":    {9},
		"truncated image":       {2, 2, 0, 0, 0},
		"wrong-size pixels":     append([]byte{2, 2, 0, 0, 0, 2, 0, 0, 0}, 1, 2, 3),
		"trailing offline junk": {0, 0},
	} {
		if _, _, ok := decodeResult(bad); ok {
			t.Fatalf("decodeResult accepted %s", name)
		}
	}
}

// The compile payload stores only the module's canonical encoding; the
// fingerprint is recomputed on decode. That is sound only if the
// encoding round-trips exactly — pinned here against every corpus-shaped
// module the compile path actually produces.
func TestMemoCompileRoundTrip(t *testing.T) {
	for name, m := range testmod.All() {
		compiled, err := target.SharedCompile(m, nil)
		if err != nil {
			continue
		}
		data, ok := encodeCompile(compiled, "")
		if !ok {
			t.Fatalf("%s: encode failed", name)
		}
		got, fp, errMsg, ok := decodeCompile(data)
		if !ok || errMsg != "" || got == nil {
			t.Fatalf("%s: decode failed (%v, %q)", name, ok, errMsg)
		}
		if fp != compiled.Fingerprint() {
			t.Fatalf("%s: fingerprint changed across the codec — the memo would desync the render layer", name)
		}
		if !bytes.Equal(got.EncodeBytes(), compiled.EncodeBytes()) {
			t.Fatalf("%s: encoding not a fixed point", name)
		}
	}
	// Error-shaped payloads round trip too.
	data, ok := encodeCompile(nil, "opt: pass exploded")
	if !ok {
		t.Fatal("encode of error payload failed")
	}
	if _, _, errMsg, ok := decodeCompile(data); !ok || errMsg != "opt: pass exploded" {
		t.Fatalf("error payload round trip: %q %v", errMsg, ok)
	}
	for name, bad := range map[string][]byte{
		"empty payload":        nil,
		"unknown tag byte":     {7},
		"garbage module bytes": {1, 0xde, 0xad},
		"empty error text":     {0},
	} {
		if _, _, _, ok := decodeCompile(bad); ok {
			t.Fatalf("decodeCompile accepted %s", name)
		}
	}
}

// A run that arrives while another engine's execution of the same key is
// in flight on the shared store must wait for it and count a
// singleflight hit instead of executing again.
func TestMemoSingleflightAcrossEngines(t *testing.T) {
	ref := New(1)
	tg := target.ByName("Mesa")
	m := testmod.Diamond()

	// Retry with distinct keys until the follower provably joined the
	// leader's flight (pointer-shared image); each attempt has a tiny
	// benign race where the engine wins the flight instead.
	for attempt := 0; attempt < 8; attempt++ {
		in := interp.Inputs{W: 4 + attempt, H: 4}
		img, crash := ref.Run(tg, m, in)
		if crash != nil {
			t.Fatalf("reference run crashed: %v", crash)
		}
		ms, err := memostore.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		eng := New(1)
		eng.SetMemoStore(ms)
		mk := resultMemoKey(eng.keyFor(tg, m, in))

		started := make(chan struct{})
		release := make(chan struct{})
		leaderDone := make(chan struct{})
		go func() {
			ms.Do(mk, func() any {
				close(started)
				<-release
				return result{img: img}
			})
			close(leaderDone)
		}()
		<-started

		runDone := make(chan struct{})
		var got *interp.Image
		go func() {
			got, _ = eng.Run(tg, m, in)
			close(runDone)
		}()
		// The engine either joins the flight (memo miss counted first) or
		// loses the race after the leader drains; wait for the counter,
		// then let the leader finish.
		for eng.Stats().MemoMisses == 0 {
			runtime.Gosched()
		}
		close(release)
		<-leaderDone
		<-runDone
		ms.Close()

		if got == img { // pointer-shared: the follower path ran
			st := eng.Stats()
			if st.SingleflightHits != 1 {
				t.Fatalf("singleflight hits %d, want 1 (%+v)", st.SingleflightHits, st)
			}
			if st.Misses != 0 {
				t.Fatalf("follower executed anyway: %+v", st)
			}
			return
		}
		// Raced: the engine executed fresh. Its result must still match.
		if !bytes.Equal(got.Pix, img.Pix) {
			t.Fatal("raced execution produced different pixels")
		}
	}
	t.Fatal("follower never joined a flight in 8 attempts")
}
