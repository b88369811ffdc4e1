package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/config"
	"repro/internal/store"
	"repro/internal/workload"
)

// withStore opens a fresh durable store for one test and returns it with
// a context whose runs use a private engine over it.
func withStore(t *testing.T) (*store.Store, context.Context) {
	t.Helper()
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return st, engineCtx(st)
}

// engineCtx returns a context whose runs use a new private engine over st
// (nil for none): an empty run cache, as after a process restart.
func engineCtx(st *store.Store) context.Context {
	return WithEngine(context.Background(), NewEngine(EngineConfig{Store: st}))
}

// TestStoredResultRoundTrip pins the codec: a restored Result reproduces
// every aggregate and the full metrics/v1 document of the original run.
func TestStoredResultRoundTrip(t *testing.T) {
	wl := workload.MustGet("doom3", 320, 240)
	opts := Options{Design: config.ATFIM}
	r, err := Run(wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(wl, opts)
	man, payload, err := encodeStoredResult(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if man.Workload != "doom3-320x240" || man.SimVersion != SimVersion || man.PayloadSchema != StoredResultSchema {
		t.Fatalf("manifest: %+v", man)
	}

	back, err := decodeStoredResult(key, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Restored() {
		t.Error("decoded result does not report Restored")
	}
	if back.Cycles() != r.Cycles() || back.TextureTraffic() != r.TextureTraffic() ||
		back.TotalTraffic() != r.TotalTraffic() {
		t.Fatalf("aggregates drifted: cycles %d/%d traffic %d/%d",
			back.Cycles(), r.Cycles(), back.TotalTraffic(), r.TotalTraffic())
	}
	if back.Energy.Total() != r.Energy.Total() {
		t.Fatalf("energy drifted: %v vs %v", back.Energy.Total(), r.Energy.Total())
	}
	if len(back.Image) != len(r.Image) {
		t.Fatalf("image length %d, want %d", len(back.Image), len(r.Image))
	}
	for i := range back.Image {
		if back.Image[i] != r.Image[i] {
			t.Fatalf("image pixel %d differs", i)
		}
	}
	origJSON, err := json.Marshal(r.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	backJSON, err := json.Marshal(back.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	if string(origJSON) != string(backJSON) {
		t.Fatal("restored metrics/v1 document differs from the original")
	}

	// The codec refuses payloads keyed for another cell.
	if _, err := decodeStoredResult(key+"/tampered", payload); err == nil {
		t.Fatal("decode accepted a payload under the wrong key")
	}
}

// TestRunCachedUsesStore is the cold→warm contract: after a memory-cache
// wipe (a "restart"), RunCached serves the persisted result instead of
// re-simulating, and a corrupted entry is recomputed and rewritten.
func TestRunCachedUsesStore(t *testing.T) {
	st, ctx := withStore(t)
	wl := workload.MustGet("doom3", 320, 240)
	opts := Options{Design: config.BPIM}

	cold, err := RunCachedContext(ctx, wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c := st.Counters(); c.Puts != 1 || c.Hits != 0 {
		t.Fatalf("cold counters: %+v", c)
	}

	warm, err := RunCachedContext(engineCtx(st), wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c := st.Counters(); c.Hits != 1 {
		t.Fatalf("warm run missed the store: %+v", c)
	}
	if !warm.Restored() {
		t.Error("warm result was re-simulated, not restored")
	}
	if warm.Cycles() != cold.Cycles() {
		t.Fatalf("warm cycles %d != cold %d", warm.Cycles(), cold.Cycles())
	}

	// Corrupt the entry on disk: the next restart-read treats it as a miss,
	// recomputes, and rewrites a good entry.
	path := st.EntryPath(cacheKey(wl, opts))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	redone, err := RunCachedContext(engineCtx(st), wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if redone.Restored() {
		t.Error("corrupt entry was served instead of recomputed")
	}
	if c := st.Counters(); c.Corrupt != 1 || c.Puts != 2 {
		t.Fatalf("recovery counters: %+v", c)
	}
	again, err := RunCachedContext(engineCtx(st), wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Restored() {
		t.Error("rewritten entry not served on the following run")
	}
	if again.Cycles() != cold.Cycles() {
		t.Fatalf("recovered cycles %d != original %d", again.Cycles(), cold.Cycles())
	}
}

// TestStoreTierAdapts exercises the farm-facing read-only adapter
// directly: it misses an empty store, serves what the store chain wrote,
// and a nil store yields a tier that misses every key.
func TestStoreTierAdapts(t *testing.T) {
	st, ctx := withStore(t)
	tier := StoreTier(st)
	if tier == nil {
		t.Fatal("nil tier for a live store")
	}
	if StoreTier(nil) != nil {
		t.Fatal("nil store should yield a nil tier")
	}

	wl := workload.MustGet("doom3", 320, 240)
	opts := Options{Design: config.Baseline}
	key := cacheKey(wl, opts)
	if _, ok := tier.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	if _, ok := StoreTier(nil).Get(key); ok {
		t.Fatal("nil tier hit")
	}
	r, err := RunCachedContext(ctx, wl, opts) // the chain writes the entry
	if err != nil {
		t.Fatal(err)
	}
	v, ok := tier.Get(key)
	if !ok {
		t.Fatal("miss after the chain wrote the entry")
	}
	back, ok := v.(*Result)
	if !ok || back.Cycles() != r.Cycles() {
		t.Fatalf("tier returned %T", v)
	}
	if c := st.Counters(); c.Puts != 1 {
		t.Fatalf("tier reads wrote to the store: %+v", c)
	}
}

// TestRunPayloadShipsStoredBytes is the serving chain's contract: a cold
// cell is simulated, encoded once and written, and the payload returned is
// the entry's payload byte for byte; a second call is a disk hit that
// returns the same bytes without writing. Nothing lands in the memory LRU,
// so a later RunCached is a disk hit too. Without a store the payload is
// still produced, and decodes to the same cell.
func TestRunPayloadShipsStoredBytes(t *testing.T) {
	st, ctx := withStore(t)
	wl := workload.MustGet("wolf", 160, 120)
	opts := Options{Design: config.STFIM}
	key := cacheKey(wl, opts)

	r, cold, err := RunPayload(ctx, wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Restored() {
		t.Fatal("cold cell was not simulated")
	}
	stored, _, ok := st.Get(key)
	if !ok || !bytes.Equal(stored, cold) {
		t.Fatalf("shipped payload (%d B) is not the stored entry (%d B, present %v)", len(cold), len(stored), ok)
	}
	if c := st.Counters(); c.Puts != 1 {
		t.Fatalf("cold counters: %+v", c)
	}

	warm, again, err := RunPayload(ctx, wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Restored() || !bytes.Equal(again, cold) {
		t.Fatal("warm call did not ship the stored bytes")
	}
	if c := st.Counters(); c.Puts != 1 {
		t.Fatalf("warm call wrote the store: %+v", c)
	}

	disk := RunCacheCounters()["disk"]
	if _, err := RunCachedContext(ctx, wl, opts); err != nil {
		t.Fatal(err)
	}
	if got := RunCacheCounters()["disk"]; got != disk+1 {
		t.Fatalf("RunCached disk hits %d -> %d: RunPayload left a memory copy", disk, got)
	}

	_, bare, err := RunPayload(engineCtx(nil), wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResultPayload(key, bare)
	if err != nil || back.Cycles() != r.Cycles() {
		t.Fatalf("store-less payload: %v", err)
	}
}
