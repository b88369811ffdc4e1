package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/admit"
	"repro/internal/obs/telem"
)

// newAdmitServer builds a test server with admission control in front of
// submissions, authorized against the given tenants.
func newAdmitServer(t *testing.T, tenants []admit.Tenant, cfg admit.Config) (*httptest.Server, *farm.Farm) {
	t.Helper()
	f := farm.New(farm.Config{})
	set, err := admit.NewTenantSet(tenants)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tenants = set
	cfg.Metrics = telem.NewRegistry()
	ctrl := admit.New(cfg)
	api := newLocalServer(t, f, nil, 2)
	api.enableAdmit(ctrl, 5*time.Second)
	ts := httptest.NewServer(api)
	t.Cleanup(func() {
		ts.Close()
		ctrl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := f.Close(ctx); err != nil {
			t.Error(err)
		}
	})
	return ts, f
}

// postJobAs submits a job with tenant credentials and decodes the raw
// response body plus interesting headers.
func postJobAs(t *testing.T, ts *httptest.Server, bearer, query, body string) (int, map[string]any, http.Header) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs"+query, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if bearer != "" {
		req.Header.Set("Authorization", "Bearer "+bearer)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

// TestAdmitAuth: keyed tenants authenticate with Bearer keys, bad keys
// and unknown names are 401, and the admitted job's view carries the
// tenant and class labels.
func TestAdmitAuth(t *testing.T) {
	ts, _ := newAdmitServer(t, []admit.Tenant{
		{Name: "alice", Key: "key-alice"},
		{Name: "dev"},
	}, admit.Config{})

	job := `{"game":"doom3","width":320,"height":240,"design":"baseline"}`
	code, out, _ := postJobAs(t, ts, "key-alice", "", job)
	if code != http.StatusAccepted {
		t.Fatalf("keyed submit = %d (%v), want 202", code, out)
	}
	if out["tenant"] != "alice" || out["class"] != "interactive" {
		t.Errorf("job view tenant/class = %v/%v, want alice/interactive", out["tenant"], out["class"])
	}

	// Bare-name auth works for unkeyed tenants, via ?tenant=.
	code, out, _ = postJobAs(t, ts, "", "?tenant=dev", job)
	if code != http.StatusAccepted || out["tenant"] != "dev" {
		t.Fatalf("bare-name submit = %d tenant %v", code, out["tenant"])
	}

	// Unauthenticated, wrong-key, and unknown-name submissions are 401
	// with a request_id in the error body.
	for name, creds := range map[string][2]string{
		"anonymous":            {"", ""},
		"bad key":              {"nope", ""},
		"unknown name":         {"", "?tenant=mallory"},
		"keyed tenant by name": {"", "?tenant=alice"},
	} {
		code, out, hdr := postJobAs(t, ts, creds[0], creds[1], job)
		if code != http.StatusUnauthorized {
			t.Errorf("%s: status = %d (%v), want 401", name, code, out)
		}
		if rid, _ := out["request_id"].(string); rid == "" || rid != hdr.Get("X-Request-ID") {
			t.Errorf("%s: error body request_id = %v, header %q", name, out["request_id"], hdr.Get("X-Request-ID"))
		}
	}
}

// TestAdmitRateLimit429: a tenant over its token budget is shed with 429,
// a Retry-After header of at least one second, and a machine-readable
// body; a different tenant is unaffected.
func TestAdmitRateLimit429(t *testing.T) {
	ts, _ := newAdmitServer(t, []admit.Tenant{
		{Name: "throttled", Key: "kt", Rate: 0.01, Burst: 1},
		{Name: "open", Key: "ko", Rate: admit.Unlimited},
	}, admit.Config{})

	job := `{"game":"doom3","width":320,"height":240,"design":"baseline"}`
	if code, out, _ := postJobAs(t, ts, "kt", "", job); code != http.StatusAccepted {
		t.Fatalf("first submit = %d (%v)", code, out)
	}
	code, out, hdr := postJobAs(t, ts, "kt", "", job)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d (%v), want 429", code, out)
	}
	if out["reason"] != "rate_limited" || out["tenant"] != "throttled" {
		t.Errorf("429 body = %v", out)
	}
	if ra := hdr.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want >= 1 second", ra)
	}
	if ms, _ := out["retry_after_ms"].(float64); ms <= 0 {
		t.Errorf("retry_after_ms = %v, want > 0", out["retry_after_ms"])
	}
	// The throttled tenant's rejection does not touch anyone else.
	if code, out, _ := postJobAs(t, ts, "ko", "", job); code != http.StatusAccepted {
		t.Fatalf("other tenant = %d (%v), want 202", code, out)
	}
}

// TestAdmitOverQuota429: a tenant at its in-flight quota is rejected
// immediately with 429 while its first job still runs; an in-quota tenant
// admits fine throughout.
func TestAdmitOverQuota429(t *testing.T) {
	ts, _ := newAdmitServer(t, []admit.Tenant{
		{Name: "small", Key: "ks", MaxInFlight: 1},
		{Name: "big", Key: "kb"},
	}, admit.Config{Slots: 8})

	// A multi-frame sweep holds small's single quota slot for seconds.
	slow := `{"game":"doom3","width":320,"height":240,"design":"baseline","frames":3}`
	code, first, _ := postJobAs(t, ts, "ks", "", slow)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d (%v)", code, first)
	}
	if first["class"] != "batch" {
		t.Errorf("multi-frame job class = %v, want inferred batch", first["class"])
	}
	code, out, hdr := postJobAs(t, ts, "ks", "", `{"game":"doom3","width":320,"height":240,"design":"baseline","frame_index":7}`)
	if code != http.StatusTooManyRequests || out["reason"] != "over_quota" {
		t.Fatalf("over-quota submit = %d (%v), want 429 over_quota", code, out)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("over-quota 429 missing Retry-After")
	}
	// Unrelated tenant is unaffected by small's quota exhaustion.
	if code, out, _ := postJobAs(t, ts, "kb", "", `{"game":"doom3","width":320,"height":240,"design":"baseline","frame_index":9}`); code != http.StatusAccepted {
		t.Fatalf("in-quota tenant = %d (%v), want 202", code, out)
	}
}

// TestClientRequestID: a well-formed client-supplied X-Request-ID is
// honored end to end (response header and error body); a malformed one is
// replaced with a server-minted ID.
func TestClientRequestID(t *testing.T) {
	ts, _ := newTestServer(t)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/job-999999", nil)
	req.Header.Set("X-Request-ID", "client-abc.123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") != "client-abc.123" || out["request_id"] != "client-abc.123" {
		t.Errorf("client request id not honored: header %q body %q",
			resp.Header.Get("X-Request-ID"), out["request_id"])
	}

	// Malformed (embedded spaces) is replaced, not echoed.
	req, _ = http.NewRequest("GET", ts.URL+"/v1/jobs/job-999999", nil)
	req.Header.Set("X-Request-ID", "evil id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out = nil
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-ID")
	if !strings.HasPrefix(got, "r-") || out["request_id"] != got {
		t.Errorf("malformed client id: header %q body %q, want minted r-*", got, out["request_id"])
	}
}

// TestBadClass400: an unknown class label is a 400 before admission.
func TestBadClass400(t *testing.T) {
	ts, _ := newTestServer(t)
	_, code := postJob(t, ts, `{"game":"doom3","width":320,"height":240,"design":"baseline","class":"urgent"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad class = %d, want 400", code)
	}
}

// TestAdmitOverloadRace: many submissions race a Slots=1, QueueDepth=1
// admission bound while a slow job holds the only slot. Every racer gets
// a definitive answer — 202 admitted or 429 queue_full — nothing hangs,
// and once the backlog drains the server admits again. The interesting
// failures here (leaked slots, double grants, lost waiters) surface under
// -race and as a wedged final submission.
func TestAdmitOverloadRace(t *testing.T) {
	ts, _ := newAdmitServer(t, []admit.Tenant{{Name: "dev"}},
		admit.Config{Slots: 1, QueueDepth: 1})

	// Occupy the slot with a multi-frame sweep, then wait until admission
	// really holds it (free_slots drains asynchronously with the POST).
	code, out, _ := postJobAs(t, ts, "", "?tenant=dev", `{"game":"doom3","width":320,"height":240,"design":"baseline","frames":4}`)
	if code != http.StatusAccepted {
		t.Fatalf("slot-holder submit = %d (%v)", code, out)
	}
	waitFreeSlots(t, ts, 0)

	const racers = 8
	results := make(chan int, racers)
	for i := 0; i < racers; i++ {
		go func(i int) {
			// Short client-side deadline: queued waiters give up quickly
			// (cancel-while-queued) instead of waiting out the slow job.
			req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs?tenant=dev",
				strings.NewReader(fmt.Sprintf(`{"game":"doom3","width":320,"height":240,"design":"baseline","frame_index":%d}`, i+100)))
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			resp, err := http.DefaultClient.Do(req.WithContext(ctx))
			if err != nil {
				// Client deadline while parked in the admission queue: the
				// server-side waiter is abandoned. Count it as shed.
				results <- http.StatusTooManyRequests
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}(i)
	}
	admitted, shed := 0, 0
	for i := 0; i < racers; i++ {
		switch code := <-results; code {
		case http.StatusAccepted:
			admitted++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("racer got %d, want 202 or 429", code)
		}
	}
	if admitted+shed != racers {
		t.Fatalf("admitted %d + shed %d != %d racers", admitted, shed, racers)
	}
	if shed == 0 {
		t.Error("no racer was shed despite Slots=1, QueueDepth=1")
	}

	// The controller is intact after the storm: waiters that gave up
	// returned their queue positions and quota holds, so a fresh
	// submission still admits once capacity frees.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, out, _ := postJobAs(t, ts, "", "?tenant=dev", `{"game":"doom3","width":320,"height":240,"design":"baseline","frame_index":999}`)
		if code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-storm submit never admitted: %d (%v)", code, out)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// waitFreeSlots polls /varz until admission reports the given free-slot
// count.
func waitFreeSlots(t *testing.T, ts *httptest.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/varz")
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			Admit *struct {
				FreeSlots int `json:"free_slots"`
			} `json:"admit"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.Admit != nil && v.Admit.FreeSlots == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("admission never reached %d free slots", want)
}
