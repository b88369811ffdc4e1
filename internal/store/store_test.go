package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/telem"
)

func openTest(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := openTest(t, Config{})
	key := "doom3-320x240/3/0.50000/false/false/false/false/4/0/1/1"
	man := Manifest{Workload: "doom3-320x240", Design: "A-TFIM", PayloadSchema: "pim-render/result/v1", SimVersion: "1"}
	payload := []byte("payload bytes, not parsed by the store\x00\x01\x02")

	if _, _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(key, man, payload); err != nil {
		t.Fatal(err)
	}
	got, gotMan, ok := s.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round-trip: got %q", got)
	}
	if gotMan.Key != key || gotMan.Workload != man.Workload || gotMan.SimVersion != man.SimVersion {
		t.Fatalf("manifest round-trip: %+v", gotMan)
	}
	if gotMan.CreatedUnix == 0 {
		t.Error("Put did not stamp CreatedUnix")
	}

	// Replacing a key keeps one entry and the byte total consistent.
	bigger := append(payload, payload...)
	if err := s.Put(key, man, bigger); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("entries = %d after replace, want 1", s.Len())
	}
	got, _, _ = s.Get(key)
	if !bytes.Equal(got, bigger) {
		t.Fatal("replace did not take")
	}

	c := s.Counters()
	if c.Hits != 2 || c.Misses != 1 || c.Puts != 2 || c.Corrupt != 0 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestCrashSafety injects the damage a crash or a future release can leave
// behind; every variant must load cleanly as a miss, be deleted, and be
// recomputable via a fresh Put.
func TestCrashSafety(t *testing.T) {
	key := "the-key"
	man := Manifest{Workload: "w"}
	payload := []byte("the payload, long enough to truncate meaningfully")

	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated payload", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated header", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte(`{"schema":"pim-`), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty file", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"checksum flip", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-1] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"future schema version", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw = bytes.Replace(raw, []byte("pim-render/store/v1"), []byte("pim-render/store/v9"), 1)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"header for a different key", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw = bytes.ReplaceAll(raw, []byte(`"the-key"`), []byte(`"not-key"`))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openTest(t, Config{})
			if err := s.Put(key, man, payload); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, s.EntryPath(key))

			if _, _, ok := s.Get(key); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if c := s.Counters(); c.Corrupt != 1 {
				t.Fatalf("corrupt counter = %d, want 1 (%+v)", c.Corrupt, c)
			}
			if _, err := os.Stat(s.EntryPath(key)); !os.IsNotExist(err) {
				t.Error("corrupt entry file was not deleted")
			}

			// The caller's recompute-and-rewrite path fully recovers.
			if err := s.Put(key, man, payload); err != nil {
				t.Fatal(err)
			}
			got, _, ok := s.Get(key)
			if !ok || !bytes.Equal(got, payload) {
				t.Fatal("rewrite after corruption did not recover the entry")
			}
		})
	}
}

// TestOpenSweepsOrphanedTempFiles simulates a writer killed mid-Put: the
// temp file it left behind is removed by the next Open and never counted.
func TestOpenSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, Config{Dir: dir})
	if err := s.Put("k", Manifest{}, []byte("v")); err != nil {
		t.Fatal(err)
	}
	bucket := filepath.Dir(s.EntryPath("k"))
	orphan := filepath.Join(bucket, tmpPrefix+"123456")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-2 * tmpOrphanAge)
	if err := os.Chtimes(orphan, stale, stale); err != nil {
		t.Fatal(err)
	}
	// A fresh temp file could belong to a live writer in another process;
	// the sweep must leave it alone.
	fresh := filepath.Join(bucket, tmpPrefix+"654321")
	if err := os.WriteFile(fresh, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, Config{Dir: dir})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("Open left the stale orphaned temp file in place")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("Open swept a fresh temp file that may belong to a live writer")
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store counts %d entries, want 1", s2.Len())
	}
	if _, _, ok := s2.Get("k"); !ok {
		t.Fatal("entry lost across reopen")
	}
}

func TestGCEvictsLRU(t *testing.T) {
	s := openTest(t, Config{MaxEntries: 3})
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := s.Put(key, Manifest{}, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		// Deterministic recency: key-0 oldest … key-2 newest.
		at := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.EntryPath(key), at, at); err != nil {
			t.Fatal(err)
		}
	}

	// A Get refreshes recency, so key-0 is no longer the eviction victim.
	if _, _, ok := s.Get("key-0"); !ok {
		t.Fatal("miss on key-0")
	}

	if err := s.Put("key-3", Manifest{}, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("entries = %d after GC, want 3", s.Len())
	}
	if _, _, ok := s.Get("key-1"); ok {
		t.Error("key-1 (least recently used) survived GC")
	}
	for _, k := range []string{"key-0", "key-2", "key-3"} {
		if _, _, ok := s.Get(k); !ok {
			t.Errorf("%s was evicted, want key-1 only", k)
		}
	}
	if c := s.Counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
}

func TestGCBoundsBytes(t *testing.T) {
	s := openTest(t, Config{MaxBytes: 4096})
	payload := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), Manifest{}, payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Size(); got > 4096 {
		t.Fatalf("store size %d exceeds MaxBytes 4096 after GC", got)
	}
	if s.Len() == 0 || s.Len() >= 8 {
		t.Fatalf("entries = %d, want some evicted and some kept", s.Len())
	}
}

// TestConcurrentAccess hammers one store from many goroutines (run under
// -race in CI) mixing puts, gets, corruption and GC.
func TestConcurrentAccess(t *testing.T) {
	s := openTest(t, Config{MaxEntries: 16})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d", i%20)
				switch i % 4 {
				case 0, 1:
					if err := s.Put(key, Manifest{}, []byte(strings.Repeat("v", i+1))); err != nil {
						t.Error(err)
					}
				case 2:
					s.Get(key)
				case 3:
					if w == 0 {
						s.GC()
					} else {
						s.Get(key)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() > 16 {
		t.Fatalf("entries = %d, want <= MaxEntries", s.Len())
	}
	// GC rescans the directory, so the tracked totals agree with disk after
	// the dust settles.
	s.GC()
	if c := s.Counters(); c.Entries > 16 {
		t.Fatalf("entries after GC = %d", c.Entries)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("Open with no dir succeeded")
	}
}

// TestCountersSeeSharedDirectory: two handles on one directory, as a
// pimfarm -dist coordinator and its workers hold. Entries the writer adds
// show up in the other handle's Counters and its entry/byte gauges, not
// only in the writer's.
func TestCountersSeeSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	reg := telem.NewRegistry()
	reader := openTest(t, Config{Dir: dir, Metrics: reg})
	writer := openTest(t, Config{Dir: dir, Metrics: telem.NewRegistry()})
	for i := 0; i < 3; i++ {
		if err := writer.Put(fmt.Sprintf("k%d", i), Manifest{}, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	want := writer.Counters()
	got := reader.Counters()
	if got.Entries != 3 || got.Bytes != want.Bytes || got.Bytes == 0 {
		t.Fatalf("reader sees %d entries / %d bytes, want 3 / %d", got.Entries, got.Bytes, want.Bytes)
	}
	entriesG := reg.Gauge("pim_store_entries", "Entries currently in the durable result store.", nil)
	bytesG := reg.Gauge("pim_store_bytes", "Bytes currently on disk in the durable result store.", nil)
	if entriesG.Value() != 3 || bytesG.Value() != float64(want.Bytes) {
		t.Fatalf("reader gauges = %v entries / %v bytes, want 3 / %d", entriesG.Value(), bytesG.Value(), want.Bytes)
	}
}
