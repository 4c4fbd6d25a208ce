package cluster

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spirvfuzz/internal/service"
	"spirvfuzz/internal/store"
)

// TestCoordinatorMuxDropsLegacyRoutes pins the one worker protocol: the
// per-endpoint blob, memo and result routes are gone from the coordinator.
func TestCoordinatorMuxDropsLegacyRoutes(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	co, err := NewCoordinator(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Mux())
	defer srv.Close()
	for _, path := range []string{"/blobs/has", "/memo/keys", "/cluster/result"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// fill is an endless reader of one repeated byte.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// gzipBomb returns a small gzip body that inflates to n MiB of JSON
// whitespace: one compressed MiB, repeated as concatenated gzip members.
func gzipBomb(t *testing.T, n int) []byte {
	t.Helper()
	var member bytes.Buffer
	zw := gzip.NewWriter(&member)
	if _, err := io.Copy(zw, io.LimitReader(fill(' '), 1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return bytes.Repeat(member.Bytes(), n)
}

// TestCoordinatorRejectsOversizedBodies sends the two unbounded-allocation
// attacks every route used to accept unauthenticated — a gzip bomb on the
// worker protocol and an oversized identity body on the campaign API — and
// requires a 413 for each, after which the coordinator must keep serving
// and finish a campaign bitwise-identical to the single-node run.
func TestCoordinatorRejectsOversizedBodies(t *testing.T) {
	want := referenceBuckets(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	co, err := NewCoordinator(st, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	sim, err := StartSim(co, 2, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Stop()

	bomb := gzipBomb(t, service.MaxInflatedBytes>>20+16)
	if len(bomb) >= service.MaxRequestBytes {
		t.Fatalf("bomb is %d bytes on the wire; it must pass the wire cap to test inflation", len(bomb))
	}
	req, err := http.NewRequest(http.MethodPost, sim.URL+"/cluster/sync", bytes.NewReader(bomb))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Encoding", "gzip")
	expectTooLarge(t, "gzip bomb", req)

	oversized := io.MultiReader(
		strings.NewReader(`{"tests": 1, "tool": "`),
		io.LimitReader(fill('a'), service.MaxRequestBytes),
		strings.NewReader(`"}`))
	req, err = http.NewRequest(http.MethodPost, sim.URL+"/campaigns", oversized)
	if err != nil {
		t.Fatal(err)
	}
	expectTooLarge(t, "oversized body", req)

	resp, err := http.Post(sim.URL+"/campaigns", "application/json", strings.NewReader(`{"tests": 12}`))
	if err != nil {
		t.Fatal(err)
	}
	var status service.CampaignStatus
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("campaign after rejected bodies: status %d, err %v", resp.StatusCode, err)
	}
	if err := waitDone(func() (service.CampaignStatus, bool) { return co.Campaign(status.ID) }); err != nil {
		t.Fatal(err)
	}
	if got := clusterBuckets(t, co, status.ID); !bytes.Equal(got, want) {
		t.Fatalf("buckets after rejected bodies differ from single-node run:\n got %s\nwant %s", got, want)
	}
}

func expectTooLarge(t *testing.T, what string, req *http.Request) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%s: status %d (%s), want 413", what, resp.StatusCode, body)
	}
}
