package core

// Durable result-store wiring: a process-wide *store.Store acts as the
// second cache tier behind the in-memory run cache (memory → disk →
// compute, with RunCached's singleflight spanning all three), and
// StoreTier adapts the same store into farm.Tier so cmd/pimfarm serves
// completed jobs from disk across restarts. The payload codec serializes a
// Result — frame measurements, energy breakdown, rendered image and the
// pim-render/metrics/v1 snapshot — as gzipped JSON; a restored Result
// reproduces every aggregate the experiments read (cycles, traffic,
// filter time, energy, PSNR inputs) bit-for-bit, so a warm-store sweep is
// byte-identical to the cold run that populated it.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/energy"
	"repro/internal/farm"
	"repro/internal/gpu"
	"repro/internal/obs"
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

var (
	resultStoreMu  sync.RWMutex
	resultStoreVar *store.Store
)

// SetResultStore attaches (or with nil detaches) the durable result store
// consulted by RunCached after a memory-cache miss and written through
// after every computed cell.
func SetResultStore(st *store.Store) {
	resultStoreMu.Lock()
	defer resultStoreMu.Unlock()
	resultStoreVar = st
}

// ResultStore returns the attached durable result store, if any.
func ResultStore() *store.Store {
	resultStoreMu.RLock()
	defer resultStoreMu.RUnlock()
	return resultStoreVar
}

// StoreTier adapts st into the farm's second cache tier, decoding stored
// payloads back into *Result values. A nil store yields a nil Tier.
func StoreTier(st *store.Store) farm.Tier {
	if st == nil {
		return nil
	}
	return storeTier{st}
}

type storeTier struct{ st *store.Store }

func (t storeTier) Get(key string) (any, bool) {
	r, ok := loadStoredResult(t.st, key)
	if !ok {
		return nil, false
	}
	return r, true
}

// Put writes v through unless this simulator version already stored the
// key — under -dist, a worker sharing the store wrote it before completing
// the lease — so each computed result is encoded and written once.
func (t storeTier) Put(key string, v any) {
	if man, ok := t.st.Manifest(key); ok && man.SimVersion == SimVersion && man.PayloadSchema == StoredResultSchema {
		return
	}
	if r, ok := v.(*Result); ok {
		saveStoredResult(t.st, key, r)
	}
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
// payload.
func encodeStoredResult(r *Result) (store.Manifest, []byte, error) {
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
		return store.Manifest{}, nil, err
	}
	if err := zw.Close(); err != nil {
		return store.Manifest{}, nil, err
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

// loadStoredResult fetches and decodes key from st; any defect (store-level
// corruption, schema or sim-version mismatch, undecodable payload) is a
// miss — the caller recomputes and the rewrite replaces the entry.
func loadStoredResult(st *store.Store, key string) (*Result, bool) {
	payload, _, ok := st.Get(key)
	if !ok {
		return nil, false
	}
	r, err := decodeStoredResult(key, payload)
	if err != nil {
		return nil, false
	}
	return r, true
}

// saveStoredResult writes r through to the durable store; persistence is
// best-effort and never fails the run (store counters record put errors).
func saveStoredResult(st *store.Store, key string, r *Result) {
	man, payload, err := encodeStoredResult(r)
	if err != nil {
		return
	}
	_ = st.Put(key, man, payload)
}

// EncodeResultPayload serializes r as a self-contained
// pim-render/result/v1 document — the same encoding store entries carry —
// for transport between farm nodes. Distributed workers return their
// results this way, so a coordinator decoding the payload reproduces
// every aggregate bit-for-bit, exactly as a warm store hit would.
func EncodeResultPayload(r *Result) ([]byte, error) {
	_, payload, err := encodeStoredResult(r)
	return payload, err
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
