package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Routes registers the coordinator's lease-protocol endpoints onto mux.
// cmd/pimfarm mounts them into its main mux, so they ride the same
// X-Request-ID / structured-log middleware as the job API; error
// responses are JSON {"error": ...} bodies with meaningful status codes
// either way.
//
//	POST /v1/leases               lease one job; waits for one, 204 when the wait cap passes
//	POST /v1/leases/{id}/renew    heartbeat; extends the TTL
//	POST /v1/leases/{id}/progress forward a progress document to the job's stream
//	POST /v1/leases/{id}/complete deliver the result payload or execution error
//	GET  /v1/workers              worker liveness introspection
func (c *Coordinator) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/leases", c.handleLease)
	mux.HandleFunc("POST /v1/leases/{id}/renew", c.handleRenew)
	mux.HandleFunc("POST /v1/leases/{id}/progress", c.handleProgress)
	mux.HandleFunc("POST /v1/leases/{id}/complete", c.handleComplete)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := decodeBody(r, &req); err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	g, err := c.Lease(r.Context(), req.Worker)
	switch {
	case errors.Is(err, ErrClosed):
		jsonError(w, http.StatusServiceUnavailable, err)
	case g == nil:
		// The wait cap passed, or the client left and hears nothing.
		w.WriteHeader(http.StatusNoContent)
	default:
		jsonBody(w, http.StatusOK, g)
	}
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if err := decodeBody(r, &req); err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	if err := c.Renew(r.PathValue("id"), req.Worker); err != nil {
		jsonError(w, http.StatusGone, err)
		return
	}
	jsonBody(w, http.StatusOK, map[string]int64{"ttl_ms": c.cfg.TTL.Milliseconds()})
}

func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	var req ProgressRequest
	if err := decodeBody(r, &req); err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	if err := c.Progress(r.PathValue("id"), req.Worker, req.Data); err != nil {
		jsonError(w, http.StatusGone, err)
		return
	}
	jsonBody(w, http.StatusOK, map[string]bool{"ok": true})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := decodeBody(r, &req); err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	if err := c.Complete(r.PathValue("id"), req); err != nil {
		jsonError(w, http.StatusGone, err)
		return
	}
	jsonBody(w, http.StatusOK, map[string]bool{"ok": true})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	jsonBody(w, http.StatusOK, map[string]any{"workers": c.Workers()})
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func jsonBody(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func jsonError(w http.ResponseWriter, status int, err error) {
	jsonBody(w, status, map[string]string{"error": err.Error()})
}

// Client is the HTTP Transport: a thin client against a remote
// coordinator's base URL. The zero HTTP client is replaced with one
// carrying a sane timeout.
type Client struct {
	// Base is the coordinator's base URL (e.g. http://farm:8080).
	Base string
	// Worker is this client's stable worker identity.
	Worker string
	// HTTP overrides the transport; nil selects a 30s-timeout client.
	HTTP *http.Client
}

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// post sends body as JSON and decodes the response into out (when
// non-nil). A 410 maps to ErrGone; other non-2xx statuses surface the
// server's JSON error body.
func (c *Client) post(ctx context.Context, path string, body, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, fmt.Errorf("dist: marshal %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(raw))
	if err != nil {
		return 0, fmt.Errorf("dist: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client().Do(req)
	if err != nil {
		return 0, fmt.Errorf("dist: %s: %w", path, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return resp.StatusCode, nil
	case resp.StatusCode == http.StatusGone:
		return resp.StatusCode, fmt.Errorf("%w (%s)", ErrGone, readAPIError(resp.Body))
	case resp.StatusCode < 200 || resp.StatusCode >= 300:
		return resp.StatusCode, fmt.Errorf("dist: %s: status %d: %s",
			path, resp.StatusCode, readAPIError(resp.Body))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("dist: decode %s response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// readAPIError extracts the server's {"error": ...} message, falling back
// to the raw body.
func readAPIError(r io.Reader) string {
	raw, _ := io.ReadAll(io.LimitReader(r, 4096))
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		return body.Error
	}
	return string(bytes.TrimSpace(raw))
}

// Lease asks the coordinator for one job; the coordinator holds the
// request until a job is queued or its wait cap passes. A nil grant with
// nil error means the cap passed with nothing queued (ask again).
func (c *Client) Lease(ctx context.Context) (*Grant, error) {
	var g Grant
	status, err := c.post(ctx, "/v1/leases", LeaseRequest{Worker: c.Worker}, &g)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNoContent {
		return nil, nil
	}
	return &g, nil
}

// Renew heartbeats a held lease. ErrGone (wrapped) means the lease was
// lost and the work must be dropped.
func (c *Client) Renew(ctx context.Context, leaseID string) error {
	_, err := c.post(ctx, "/v1/leases/"+leaseID+"/renew", RenewRequest{Worker: c.Worker}, nil)
	return err
}

// Progress forwards one progress document for a held lease.
func (c *Client) Progress(ctx context.Context, leaseID string, data json.RawMessage) error {
	_, err := c.post(ctx, "/v1/leases/"+leaseID+"/progress",
		ProgressRequest{Worker: c.Worker, Data: data}, nil)
	return err
}

// Complete delivers the result payload (or execution error) for a held
// lease, along with the worker's trace report and profile when it has
// them; req.Worker is set to this client's identity.
func (c *Client) Complete(ctx context.Context, leaseID string, req CompleteRequest) error {
	req.Worker = c.Worker
	_, err := c.post(ctx, "/v1/leases/"+leaseID+"/complete", req, nil)
	return err
}

// IsGone reports whether err is (or wraps) a lost-lease rejection.
func IsGone(err error) bool { return errors.Is(err, ErrGone) }
