package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"spirvfuzz/internal/service"
)

// Mux returns the coordinator's complete HTTP API: the campaign API every
// spirvd role serves (service.NewMux, so the spirvd client and the e2e
// harness work unchanged against a coordinator) plus the worker protocol
// (/cluster/*). Worker bodies are decoded by service.ReadJSON, under the
// same size limits as the campaign API.
func (co *Coordinator) Mux() *http.ServeMux {
	mux := service.NewMux(co, func() any { return co.Metrics() })
	mux.HandleFunc("POST /cluster/join", func(w http.ResponseWriter, r *http.Request) {
		var req joinRequest
		if !service.ReadJSON(w, r, &req) {
			return
		}
		if req.Node == "" {
			service.WriteError(w, http.StatusBadRequest, fmt.Errorf("join needs a node name"))
			return
		}
		ttl := co.Join(req.Node, req.ProcToken)
		writeWire(w, r, joinResponse{OK: true, LeaseTTLMS: ttl.Milliseconds()})
	})
	mux.HandleFunc("POST /cluster/next", func(w http.ResponseWriter, r *http.Request) {
		var req nodeRequest
		if !service.ReadJSON(w, r, &req) {
			return
		}
		if req.Node == "" {
			service.WriteError(w, http.StatusBadRequest, fmt.Errorf("next needs a node name"))
			return
		}
		sh, ok := co.Next(req.Node)
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeWire(w, r, sh)
	})
	mux.HandleFunc("POST /cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req nodeRequest
		if !service.ReadJSON(w, r, &req) {
			return
		}
		if req.Node == "" {
			service.WriteError(w, http.StatusBadRequest, fmt.Errorf("heartbeat needs a node name"))
			return
		}
		co.Heartbeat(req.Node)
		writeWire(w, r, okResponse{OK: true})
	})
	// One round trip folds blob pushes/fetches/offers, memo sync legs, and
	// optionally the shard result itself.
	mux.HandleFunc("POST /cluster/sync", func(w http.ResponseWriter, r *http.Request) {
		var req syncRequest
		if !service.ReadJSON(w, r, &req) {
			return
		}
		resp, err := co.SyncBatch(req)
		if err != nil {
			service.WriteError(w, http.StatusBadRequest, err)
			return
		}
		writeWire(w, r, resp)
	})
	return mux
}

// writeWire writes a worker-protocol response: compact JSON, gzip-coded
// when the client accepts it and the body clears the size floor.
func writeWire(w http.ResponseWriter, r *http.Request, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		service.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") && len(data) >= gzipMinBytes {
		w.Header().Set("Content-Encoding", "gzip")
		w.WriteHeader(http.StatusOK)
		_ = gzipTo(w, data) // a failed write means the client went away
		return
	}
	w.Write(data)
}
