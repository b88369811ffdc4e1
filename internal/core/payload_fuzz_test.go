package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// fuzzPayloadKey is the cell the committed valid seed encodes: doom3 at
// 16x12 on the Baseline design.
var fuzzPayloadKey = cacheKey(workload.MustGet("doom3", 16, 12), Options{Design: config.Baseline})

// FuzzDecodeResultPayload feeds arbitrary bytes to the result decoder
// every farm job's result crosses on its way from a worker. Whatever the
// input, decoding returns an error or a usable Result — never a panic —
// and an accepted Result really is the requested cell and renders its
// metrics/v1 snapshot. The seed corpus in
// testdata/fuzz/FuzzDecodeResultPayload holds a valid payload, a
// truncated gzip stream, a wrong schema, a wrong simulator version and a
// payload for another cell.
func FuzzDecodeResultPayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := DecodeResultPayload(fuzzPayloadKey, payload)
		if err != nil {
			return
		}
		if got := cacheKey(res.Workload, res.Options); got != fuzzPayloadKey {
			t.Fatalf("accepted a payload for %q", got)
		}
		if res.Metrics() == nil {
			t.Fatal("accepted result has no metrics snapshot")
		}
	})
}
