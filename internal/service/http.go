package service

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Request limits shared by every spirvd HTTP route, campaign API and worker
// protocol alike. They are constants, not flags: a legitimate body sits
// orders of magnitude below them, and their job is only to keep a hostile or
// broken client from making the daemon allocate without bound.
const (
	// MaxRequestBytes caps a request body as it arrives on the wire.
	MaxRequestBytes = 32 << 20
	// MaxInflatedBytes caps a gzip-coded request body after inflation, so a
	// small compressed body cannot expand into gigabytes of JSON.
	MaxInflatedBytes = 64 << 20
	// ReadHeaderTimeout bounds how long a connection may take to send its
	// request headers.
	ReadHeaderTimeout = 10 * time.Second
)

// API is the campaign, bisection and report surface of a spirvd daemon.
// *Service serves it in standalone mode and *cluster.Coordinator in cluster
// mode; NewMux puts either behind the same HTTP routes.
type API interface {
	CreateCampaign(CampaignSpec) (CampaignStatus, error)
	Campaigns() []CampaignStatus
	Campaign(id string) (CampaignStatus, bool)
	Buckets(id string) ([]BucketSet, error)
	ReportBlob(hash string) ([]byte, error)
	CreateBisect(BisectSpec) (BisectStatus, error)
	BisectJobs() []BisectStatus
	BisectJob(id string) (BisectStatus, bool)
	BisectResult(id string) (BisectSet, error)
}

// NewMux serves api's campaign routes plus GET /metrics (metrics returns
// the role's counter snapshot). All payloads are JSON; errors are
// {"error": "..."} with a matching status. Callers may add routes to the
// returned mux (the cluster coordinator adds its worker protocol).
func NewMux(api API, metrics func() any) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec CampaignSpec
		if !ReadJSON(w, r, &spec) {
			return
		}
		status, err := api.CreateCampaign(spec)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		WriteJSON(w, http.StatusCreated, status)
	})
	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, api.Campaigns())
	})
	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		status, ok := api.Campaign(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("no campaign %q", r.PathValue("id")))
			return
		}
		WriteJSON(w, http.StatusOK, status)
	})
	mux.HandleFunc("GET /buckets", func(w http.ResponseWriter, r *http.Request) {
		sets, err := api.Buckets(r.URL.Query().Get("campaign"))
		if err != nil {
			WriteError(w, http.StatusNotFound, err)
			return
		}
		if sets == nil {
			sets = []BucketSet{}
		}
		WriteJSON(w, http.StatusOK, sets)
	})
	mux.HandleFunc("GET /reports/{hash}", func(w http.ResponseWriter, r *http.Request) {
		blob, err := api.ReportBlob(r.PathValue("hash"))
		if err != nil {
			WriteError(w, http.StatusNotFound, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(blob)
	})
	mux.HandleFunc("POST /bisect", func(w http.ResponseWriter, r *http.Request) {
		var spec BisectSpec
		if !ReadJSON(w, r, &spec) {
			return
		}
		status, err := api.CreateBisect(spec)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		WriteJSON(w, http.StatusCreated, status)
	})
	mux.HandleFunc("GET /bisect", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, api.BisectJobs())
	})
	mux.HandleFunc("GET /bisect/{id}", func(w http.ResponseWriter, r *http.Request) {
		status, ok := api.BisectJob(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("no bisect job %q", r.PathValue("id")))
			return
		}
		WriteJSON(w, http.StatusOK, status)
	})
	mux.HandleFunc("GET /bisect/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		set, err := api.BisectResult(r.PathValue("id"))
		if err != nil {
			WriteError(w, http.StatusNotFound, err)
			return
		}
		WriteJSON(w, http.StatusOK, set)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, metrics())
	})
	return mux
}

// ReadJSON decodes a request body into v. The body may carry
// Content-Encoding: gzip; it is bounded by MaxRequestBytes on the wire and
// MaxInflatedBytes after inflation. On failure ReadJSON writes the error
// response (413 past a limit, 400 otherwise) and returns false.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := decodeBody(w, r, v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteError(w, status, err)
	return false
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	if strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		zr, err := gzip.NewReader(body)
		if err != nil {
			return fmt.Errorf("bad gzip request body: %w", err)
		}
		defer zr.Close()
		body = http.MaxBytesReader(w, zr, MaxInflatedBytes)
	}
	return json.NewDecoder(body).Decode(v)
}

// WriteJSON writes v as indented JSON with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes {"error": err} with the given status.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}
