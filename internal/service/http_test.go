package service

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fakeAPI is an in-memory API: one known campaign "c001", no bisect jobs,
// no reports, and empty bucket sets.
type fakeAPI struct{}

func (fakeAPI) CreateCampaign(spec CampaignSpec) (CampaignStatus, error) {
	if spec.Tests <= 0 {
		return CampaignStatus{}, fmt.Errorf("tests must be positive")
	}
	return CampaignStatus{ID: "c001", State: StatePending}, nil
}
func (fakeAPI) Campaigns() []CampaignStatus { return []CampaignStatus{{ID: "c001"}} }
func (fakeAPI) Campaign(id string) (CampaignStatus, bool) {
	return CampaignStatus{ID: id}, id == "c001"
}
func (fakeAPI) Buckets(id string) ([]BucketSet, error) {
	if id != "" && id != "c001" {
		return nil, fmt.Errorf("no campaign %q", id)
	}
	return nil, nil
}
func (fakeAPI) ReportBlob(hash string) ([]byte, error) {
	return nil, fmt.Errorf("no report %q", hash)
}
func (fakeAPI) CreateBisect(spec BisectSpec) (BisectStatus, error) {
	if spec.Campaign != "c001" {
		return BisectStatus{}, fmt.Errorf("bisection needs a finished campaign")
	}
	return BisectStatus{ID: "b001", Campaign: spec.Campaign}, nil
}
func (fakeAPI) BisectJobs() []BisectStatus { return nil }
func (fakeAPI) BisectJob(id string) (BisectStatus, bool) {
	return BisectStatus{}, false
}
func (fakeAPI) BisectResult(id string) (BisectSet, error) {
	return BisectSet{}, fmt.Errorf("no bisect job %q", id)
}

// TestMuxRoutes drives every campaign-API route of NewMux over a fake API:
// status codes for created, malformed, rejected and unknown resources, and
// [] (not null) for empty bucket sets.
func TestMuxRoutes(t *testing.T) {
	srv := httptest.NewServer(NewMux(fakeAPI{}, func() any { return map[string]int{"jobs": 7} }))
	defer srv.Close()
	cases := []struct {
		method, path, body string
		status             int
		want               string // substring of the response body
	}{
		{"POST", "/campaigns", `{"tests": 3}`, http.StatusCreated, `"id": "c001"`},
		{"POST", "/campaigns", `{"tests": `, http.StatusBadRequest, `"error"`},
		{"POST", "/campaigns", `{"tests": 0}`, http.StatusBadRequest, "tests must be positive"},
		{"GET", "/campaigns", "", http.StatusOK, `"id": "c001"`},
		{"GET", "/campaigns/c001", "", http.StatusOK, `"id": "c001"`},
		{"GET", "/campaigns/c999", "", http.StatusNotFound, `no campaign \"c999\"`},
		{"GET", "/buckets", "", http.StatusOK, "[]"},
		{"GET", "/buckets?campaign=c001", "", http.StatusOK, "[]"},
		{"GET", "/buckets?campaign=c999", "", http.StatusNotFound, "no campaign"},
		{"GET", "/reports/deadbeef", "", http.StatusNotFound, "no report"},
		{"POST", "/bisect", `{"campaign": "c001"}`, http.StatusCreated, `"id": "b001"`},
		{"POST", "/bisect", `[`, http.StatusBadRequest, `"error"`},
		{"POST", "/bisect", `{"campaign": "c999"}`, http.StatusBadRequest, "finished campaign"},
		{"GET", "/bisect", "", http.StatusOK, "null"},
		{"GET", "/bisect/b999", "", http.StatusNotFound, `no bisect job \"b999\"`},
		{"GET", "/bisect/b999/result", "", http.StatusNotFound, "no bisect job"},
		{"GET", "/metrics", "", http.StatusOK, `"jobs": 7`},
		{"DELETE", "/campaigns/c001", "", http.StatusMethodNotAllowed, ""},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s %s: status %d body %q, want %d containing %q",
				tc.method, tc.path, resp.StatusCode, body, tc.status, tc.want)
		}
	}
}

// TestGunzipPooledMatchesFresh decodes gzip streams through the pooled
// readers from 8 goroutines at once and checks every result against a fresh
// gzip.NewReader: the same bytes for good streams (multi-member ones too),
// an error for corrupt ones, and a reader that works again after an error.
// ReadJSON decodes a gzipped body through the same pool.
func TestGunzipPooledMatchesFresh(t *testing.T) {
	stream := func(g, i int) []byte {
		var buf bytes.Buffer
		for m := 0; m <= i%3; m++ { // 1-3 concatenated members
			zw := gzip.NewWriter(&buf)
			fmt.Fprintf(zw, "{\"g\":%d,\"i\":%d,\"pad\":%q}", g, i, strings.Repeat("x", 97*i))
			zw.Close()
		}
		data := buf.Bytes()
		if i%5 == 4 {
			data[len(data)/2] ^= 0xff // corrupt the deflate stream or its checksum
		}
		if i%7 == 6 {
			data = data[:5] // torn header
		}
		return data
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				data := stream(g, i)
				var got []byte
				err := Gunzip(bytes.NewReader(data), func(zr io.Reader) (err error) {
					got, err = io.ReadAll(zr)
					return err
				})
				var want []byte
				zr, wantErr := gzip.NewReader(bytes.NewReader(data))
				if wantErr == nil {
					want, wantErr = io.ReadAll(zr)
				}
				if (err == nil) != (wantErr == nil) || err == nil && !bytes.Equal(got, want) {
					t.Errorf("stream %d/%d: pooled (%d bytes, %v) vs fresh (%d bytes, %v)", g, i, len(got), err, len(want), wantErr)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var body bytes.Buffer
	zw := gzip.NewWriter(&body)
	fmt.Fprint(zw, `{"tests": 7, "tool": "spirv-fuzz"}`)
	zw.Close()
	req := httptest.NewRequest(http.MethodPost, "/campaigns", &body)
	req.Header.Set("Content-Encoding", "gzip")
	var spec CampaignSpec
	if rec := httptest.NewRecorder(); !ReadJSON(rec, req, &spec) {
		t.Fatalf("ReadJSON of a gzipped body: %d %s", rec.Code, rec.Body)
	}
	if spec.Tests != 7 || spec.Tool != "spirv-fuzz" {
		t.Fatalf("ReadJSON decoded %+v", spec)
	}
}
