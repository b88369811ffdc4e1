package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs/telem"
)

// BenchmarkLeaseRoundTrip measures pure wire-protocol overhead per job —
// enqueue, HTTP lease, complete, outcome delivery — with a no-op
// executor and 2 workers × 2 slots. This is the floor a distributed job
// pays over an in-process one; real jobs amortize it over a full frame
// simulation.
func BenchmarkLeaseRoundTrip(b *testing.B) {
	c := NewCoordinator(Config{TTL: time.Minute, Metrics: telem.NewRegistry()})
	defer c.Close()
	mux := http.NewServeMux()
	c.Routes(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		w := &Worker{
			Client: &Client{Base: ts.URL, Worker: fmt.Sprintf("bench-%d", i)},
			Slots:  2,
			Exec: func(ctx context.Context, g *Grant, progress func(any)) ([]byte, []byte, error) {
				return []byte("ok"), nil, nil
			},
		}
		go w.Run(ctx)
	}

	b.ResetTimer()
	chans := make([]<-chan Outcome, b.N)
	for i := 0; i < b.N; i++ {
		_, ch, err := c.Enqueue(Job{
			Key:  fmt.Sprintf("bench-key-%d", i),
			Spec: json.RawMessage(`{}`),
		})
		if err != nil {
			b.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		if o := <-ch; o.Err != "" {
			b.Fatalf("job %d: %s", i, o.Err)
		}
	}
}
