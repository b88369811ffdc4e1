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
	"repro/internal/farm/dist"
	"repro/internal/obs/telem"
)

// BenchmarkDistFarmThroughput is the coordinator + 2-worker throughput
// number for the perf trajectory: one iteration pushes 8 distinct render
// jobs (different frame indices, so none are cache hits) through the full
// distributed path — HTTP submit, lease, worker-side simulation,
// heartbeats, result upload, decode — and waits for all of them. The
// setup/teardown of the farm trio is excluded from the timer. Workers
// keep no result cache and no store is attached, so every job really
// simulates.
func BenchmarkDistFarmThroughput(b *testing.B) {
	const jobs = 8
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := farm.New(farm.Config{})
		coord := dist.NewCoordinator(dist.Config{TTL: time.Minute, Metrics: telem.NewRegistry()})
		api := newServer(f, nil, coord)
		ts := httptest.NewServer(api)
		wctx, wcancel := context.WithCancel(context.Background())
		for w := 0; w < 2; w++ {
			wk := &dist.Worker{
				Client: &dist.Client{Base: ts.URL, Worker: fmt.Sprintf("bench-%d", w)},
				Slots:  2,
				Exec:   execGrant,
			}
			go wk.Run(wctx)
		}
		b.StartTimer()

		ids := make([]string, 0, jobs)
		for n := 0; n < jobs; n++ {
			body := fmt.Sprintf(
				`{"game":"doom3","width":320,"height":240,"design":"atfim","frame_index":%d}`, n)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var jr jobResponse
			err = json.NewDecoder(resp.Body).Decode(&jr)
			resp.Body.Close()
			if err != nil || jr.ID == "" {
				b.Fatalf("submit %d: %v (%+v)", n, err, jr)
			}
			ids = append(ids, jr.ID)
		}
		for _, id := range ids {
			for {
				resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
				if err != nil {
					b.Fatal(err)
				}
				var jr jobResponse
				err = json.NewDecoder(resp.Body).Decode(&jr)
				resp.Body.Close()
				if err != nil {
					b.Fatal(err)
				}
				if jr.State == "done" {
					break
				}
				if jr.State == "failed" || jr.State == "canceled" {
					b.Fatalf("job %s: %s (%s)", id, jr.State, jr.Error)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}

		b.StopTimer()
		wcancel()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if err := f.Close(ctx); err != nil {
			b.Error(err)
		}
		cancel()
		coord.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}
