package core

// Durable result-store wiring: the engine's *store.Store is the disk
// tier, and runStored is the one chain that touches it — a decode-verified
// store lookup, and on a miss a simulation whose result is encoded once
// and written. RunCachedContext puts the memory LRU and its singleflight
// in front of that chain for sweeps; RunPayload runs it bare for the
// serving path's workers, which ship the bytes it read or wrote. StoreTier
// is the read-only view of the same store that cmd/pimfarm's farm serves
// completed jobs from across restarts. The payload codec serializes a
// Result — frame measurements, energy breakdown, rendered image and the
// pim-render/metrics/v1 snapshot — as gzipped JSON; a restored Result
// reproduces every aggregate the experiments read (cycles, traffic,
// filter time, energy, PSNR inputs) bit-for-bit, so a warm-store sweep is
// byte-identical to the cold run that populated it.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/obs/dtrace"
	"repro/internal/store"
	"repro/internal/workload"
)

// SimVersion identifies the simulator's behavioral revision. It is stamped
// into every store entry; bump it when cycle accounting, the energy model
// or scene generation changes so stale persisted results are recomputed
// instead of silently served.
//
// "2": hermetic tile-group fragment model (shard-count-independent fork/
// join execution) replaced the single sequential frame machine.
const SimVersion = "2"

// StoredResultSchema identifies the store payload encoding produced by
// this package.
const StoredResultSchema = "pim-render/result/v1"

// RunPayload runs the store → compute → write chain for one cell and
// returns the result with its pim-render/result/v1 payload: the exact
// bytes read from or written to the store of ctx's engine (encoded once,
// without a write, when it has none). It keeps no in-memory copy — on the
// serving path the farm's LRU is the memory tier — so a worker ships a
// disk hit without re-encoding it and a computed result after one encode.
func RunPayload(ctx context.Context, wl workload.Workload, opts Options) (*Result, []byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	r, payload, err := engineFrom(ctx).runStored(ctx, wl, opts, cacheKey(wl, opts))
	if err == nil && payload == nil {
		// No store on the engine, or its encode failed: encode for the wire.
		_, payload, err = encodeStoredResult(ctx, r)
	}
	if err != nil {
		return nil, nil, err
	}
	return r, payload, nil
}

// runStored is the one path from the durable store to a simulation and
// back. A decode-verified entry for key is served with its payload; any
// miss — absent, corrupt, stale or undecodable — simulates, and when e
// has a store encodes the result once and writes it. Persistence is
// best-effort: a failed put leaves the run standing (store counters
// record put errors), and so does a failed encode, which returns no
// payload.
func (e *Engine) runStored(ctx context.Context, wl workload.Workload, opts Options, key string) (*Result, []byte, error) {
	st := e.cfg.Store
	if st != nil {
		if r, payload, ok := loadStoredResult(st, key); ok {
			runCacheOutcome("disk")
			return r, payload, nil
		}
	}
	r, err := RunContext(ctx, wl, opts)
	if err != nil {
		return nil, nil, err
	}
	runCacheOutcome("compute")
	if st == nil {
		return r, nil, nil
	}
	man, payload, err := encodeStoredResult(ctx, r)
	if err != nil {
		return r, nil, nil
	}
	_ = st.Put(key, man, payload)
	return r, payload, nil
}

// StoreTier is the farm's read-only second cache tier over st: it serves
// decode-verified entries as *Result values and never writes (runStored
// owns writes). It satisfies the farm's Tier interface structurally, so
// this package needs no import of the serving layer. A nil store yields a
// nil tier, which misses every key.
func StoreTier(st *store.Store) *ResultTier {
	if st == nil {
		return nil
	}
	return &ResultTier{st}
}

// ResultTier is the read-only store view StoreTier returns.
type ResultTier struct{ st *store.Store }

// Get returns the stored result for key, if a decode-verified entry exists.
func (t *ResultTier) Get(key string) (any, bool) {
	if t == nil {
		return nil, false
	}
	r, _, ok := loadStoredResult(t.st, key)
	if !ok {
		return nil, false
	}
	return r, true
}

// storedResult is the store payload: everything needed to rebuild a Result
// without re-simulating. The image is packed as little-endian bytes (JSON
// base64) instead of a numeric array; the metrics snapshot is embedded so
// a restored Result serves the exact document the live run produced,
// including backend histograms a restored Result could not recompute.
type storedResult struct {
	Schema     string           `json:"schema"`
	SimVersion string           `json:"sim_version"`
	Game       string           `json:"game"`
	Width      int              `json:"width"`
	Height     int              `json:"height"`
	Options    Options          `json:"options"`
	Frame      *gpu.FrameResult `json:"frame"`
	Energy     energy.Breakdown `json:"energy"`
	Metrics    *obs.Snapshot    `json:"metrics,omitempty"`
	Image      []byte           `json:"image,omitempty"`
}

// encodeStoredResult serializes r into a store manifest and gzipped JSON
// payload, recorded as the "encode" span of ctx's trace recorder — on the
// serving path the worker's, inside its "run" span.
func encodeStoredResult(ctx context.Context, r *Result) (store.Manifest, []byte, error) {
	start := time.Now()
	defer func() { dtrace.RecorderFrom(ctx).Span("worker", "encode", start, time.Now(), nil) }()
	opts := r.Options
	opts.Trace = nil    // runtime-only; not part of the cell's identity
	opts.Progress = nil // likewise (and func values cannot be serialized)
	opts.Profile = nil  // likewise
	frame := *r.Frame
	frame.Image = nil // packed separately
	sr := storedResult{
		Schema:     StoredResultSchema,
		SimVersion: SimVersion,
		Game:       r.Workload.Game,
		Width:      r.Workload.Width,
		Height:     r.Workload.Height,
		Options:    opts,
		Frame:      &frame,
		Energy:     r.Energy,
		Metrics:    r.Metrics(),
		Image:      packWords(r.Image),
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := json.NewEncoder(zw).Encode(&sr); err != nil {
		return store.Manifest{}, nil, fmt.Errorf("core: encode result: %w", err)
	}
	if err := zw.Close(); err != nil {
		return store.Manifest{}, nil, fmt.Errorf("core: encode result: %w", err)
	}
	man := store.Manifest{
		Workload:      r.Workload.Name(),
		Design:        r.Design.String(),
		PayloadSchema: StoredResultSchema,
		SimVersion:    SimVersion,
	}
	return man, buf.Bytes(), nil
}

// decodeStoredResult rebuilds a Result from a store payload, verifying the
// payload schema, simulator version and that the entry really describes
// key. Restored results have no live texture path or memory backend; their
// Metrics() serves the embedded snapshot.
func decodeStoredResult(key string, payload []byte) (*Result, error) {
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("core: stored result: %w", err)
	}
	var sr storedResult
	if err := json.NewDecoder(zr).Decode(&sr); err != nil {
		zr.Close()
		return nil, fmt.Errorf("core: stored result: %w", err)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("core: stored result: %w", err)
	}
	if sr.Schema != StoredResultSchema {
		return nil, fmt.Errorf("core: stored result schema %q (want %q)", sr.Schema, StoredResultSchema)
	}
	if sr.SimVersion != SimVersion {
		return nil, fmt.Errorf("core: stored result from sim version %q (running %q)", sr.SimVersion, SimVersion)
	}
	if sr.Frame == nil {
		return nil, fmt.Errorf("core: stored result has no frame")
	}
	wl, err := workload.Get(sr.Game, sr.Width, sr.Height)
	if err != nil {
		return nil, fmt.Errorf("core: stored result: %w", err)
	}
	if got := cacheKey(wl, sr.Options); got != key {
		return nil, fmt.Errorf("core: stored result keyed %q, expected %q", got, key)
	}
	img := unpackWords(sr.Image)
	frame := sr.Frame
	frame.Image = img
	return &Result{
		Workload:      wl,
		Design:        sr.Options.Design,
		Options:       sr.Options,
		Frame:         frame,
		Energy:        sr.Energy,
		Image:         img,
		storedMetrics: sr.Metrics,
	}, nil
}

// loadStoredResult fetches and decodes key from st, returning the result
// with the payload bytes it decoded; any defect (store-level corruption,
// schema or sim-version mismatch, undecodable payload) is a miss — the
// caller recomputes and the rewrite replaces the entry.
func loadStoredResult(st *store.Store, key string) (*Result, []byte, bool) {
	payload, _, ok := st.Get(key)
	if !ok {
		return nil, nil, false
	}
	r, err := decodeStoredResult(key, payload)
	if err != nil {
		return nil, nil, false
	}
	return r, payload, true
}

// DecodeResultPayload rebuilds a Result from a pim-render/result/v1
// document, verifying the schema, simulator version, and that the
// payload really describes key (the job's CacheKey) — a worker running a
// different simulator revision is rejected rather than trusted.
func DecodeResultPayload(key string, payload []byte) (*Result, error) {
	return decodeStoredResult(key, payload)
}

// packWords encodes RGBA8 words as little-endian bytes (JSON base64 is ~3x
// smaller than a numeric array, and gzip then compresses the raw bytes).
func packWords(w []uint32) []byte {
	if len(w) == 0 {
		return nil
	}
	b := make([]byte, 4*len(w))
	for i, v := range w {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	return b
}

// unpackWords reverses packWords (trailing partial words are dropped).
func unpackWords(b []byte) []uint32 {
	if len(b) < 4 {
		return nil
	}
	w := make([]uint32, len(b)/4)
	for i := range w {
		w[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return w
}
