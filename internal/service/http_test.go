package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
