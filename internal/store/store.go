// Package store is the durable experiment store: a content-addressed,
// crash-safe on-disk cache of simulation results.
//
// Entries are opaque byte payloads keyed by a stable string (the farm and
// core key results by core.CacheKey); the key is hashed to a file path, so
// the store never trusts or parses keys. Each entry file is a one-line JSON
// header (schema version, key, payload checksum and size, caller manifest)
// followed by the raw payload. Writes go through a temp file, fsync and an
// atomic rename, so a crash mid-write can never leave a half-visible entry;
// reads verify the header and checksum and treat any corrupt, truncated or
// schema-mismatched file as a miss — the caller recomputes and rewrites,
// and the bad file is deleted. A size/count-bounded GC evicts the
// least-recently-used entries (file mtime, refreshed on every hit).
//
// All operations are safe under concurrent use from multiple goroutines
// and, thanks to the atomic-rename protocol, from multiple processes
// sharing one directory.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs/telem"
)

// SchemaVersion identifies the entry-file layout. A file whose header
// carries any other value (e.g. one written by a future release) is
// treated as a miss, never an error.
const SchemaVersion = "pim-render/store/v1"

// Defaults used when Config fields are zero.
const (
	// DefaultMaxBytes bounds the store's total payload+header bytes.
	DefaultMaxBytes = 2 << 30 // 2 GiB
	// DefaultMaxEntries bounds the entry count.
	DefaultMaxEntries = 4096
)

const (
	entryExt  = ".ent"
	tmpPrefix = "tmp-"
	// tmpOrphanAge is how old a temp file must be before a scan treats it as
	// an orphan from a crashed writer. Live writers hold their temp file for
	// milliseconds; deleting only stale ones keeps GC rescans from racing an
	// in-flight Put (in this process or another sharing the directory).
	tmpOrphanAge = 15 * time.Minute
)

// Manifest is the caller-supplied description of an entry, stored in the
// header so entries are identifiable without decoding the payload.
type Manifest struct {
	// Key is the full cache key (set by Put; file names only carry its hash).
	Key string `json:"key"`
	// Workload and Design describe the simulated cell, when applicable.
	Workload string `json:"workload,omitempty"`
	Design   string `json:"design,omitempty"`
	// PayloadSchema names the payload encoding (e.g. pim-render/result/v1).
	PayloadSchema string `json:"payload_schema,omitempty"`
	// SimVersion is the simulator revision that produced the payload;
	// consumers treat a mismatch as a miss and recompute.
	SimVersion string `json:"sim_version,omitempty"`
	// CreatedUnix is the write time (seconds); informational only — GC uses
	// file mtimes, which hits refresh.
	CreatedUnix int64 `json:"created_unix,omitempty"`
}

// header is the first line of an entry file.
type header struct {
	Schema        string   `json:"schema"`
	Key           string   `json:"key"`
	PayloadSHA256 string   `json:"payload_sha256"`
	PayloadSize   int64    `json:"payload_size"`
	Manifest      Manifest `json:"manifest"`
}

// Config configures a Store.
type Config struct {
	// Dir is the store root; it is created if missing.
	Dir string
	// MaxBytes bounds total on-disk bytes; <= 0 selects DefaultMaxBytes.
	MaxBytes int64
	// MaxEntries bounds the entry count; <= 0 selects DefaultMaxEntries.
	MaxEntries int
	// Metrics is the live-telemetry registry the store publishes
	// pim_store_* series into; nil selects telem.Default().
	Metrics *telem.Registry
}

// storeMetrics holds the store's live-telemetry instruments.
type storeMetrics struct {
	hits, misses, corrupt    *telem.Counter
	puts, putErrs, evictions *telem.Counter
	entries, bytes           *telem.Gauge
}

func newStoreMetrics(r *telem.Registry) storeMetrics {
	ops := func(op string) *telem.Counter {
		return r.Counter("pim_store_ops_total",
			"Durable result-store operations by outcome (hit, miss, corrupt, put, put_error, evict).",
			telem.Labels{"op": op})
	}
	return storeMetrics{
		hits:      ops("hit"),
		misses:    ops("miss"),
		corrupt:   ops("corrupt"),
		puts:      ops("put"),
		putErrs:   ops("put_error"),
		evictions: ops("evict"),
		entries: r.Gauge("pim_store_entries",
			"Entries currently in the durable result store.", nil),
		bytes: r.Gauge("pim_store_bytes",
			"Bytes currently on disk in the durable result store.", nil),
	}
}

// Counters is a point-in-time snapshot of store activity.
type Counters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Corrupt   uint64 `json:"corrupt"`
	Puts      uint64 `json:"puts"`
	PutErrors uint64 `json:"put_errors"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// Store is a content-addressed on-disk cache. Safe for concurrent use.
type Store struct {
	cfg Config
	met storeMetrics

	mu      sync.Mutex
	entries int
	bytes   int64

	hits      uint64
	misses    uint64
	corrupt   uint64
	puts      uint64
	putErrors uint64
	evictions uint64
}

// Open builds a store rooted at cfg.Dir, creating the directory tree if
// needed, sweeping orphaned temp files from crashed writers, and counting
// the surviving entries toward the GC bounds.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: no directory configured")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telem.Default()
	}
	s := &Store{cfg: cfg, met: newStoreMetrics(reg)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.scanLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store root directory.
func (s *Store) Dir() string { return s.cfg.Dir }

// EntryPath returns the file path an entry for key lives at (whether or
// not it exists). Exposed so tests can inject corruption.
func (s *Store) EntryPath(key string) string {
	h := sha256.Sum256([]byte(key))
	hx := hex.EncodeToString(h[:])
	return filepath.Join(s.cfg.Dir, "objects", hx[:2], hx+entryExt)
}

// Get returns the payload and manifest stored for key. Any defect — a
// missing file, truncation, checksum or key mismatch, or an unknown schema
// version — is a miss (corrupt files are also deleted so the caller's
// rewrite starts clean). A hit refreshes the entry's mtime for LRU GC.
func (s *Store) Get(key string) ([]byte, Manifest, bool) {
	path := s.EntryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		s.met.misses.Inc()
		return nil, Manifest{}, false
	}
	payload, man, err := decodeEntry(key, raw)
	if err != nil {
		s.discardCorrupt(path, int64(len(raw)))
		return nil, Manifest{}, false
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // best-effort LRU recency
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	s.met.hits.Inc()
	return payload, man, true
}

// Put atomically writes an entry for key: temp file in the target
// directory, fsync, rename. An existing entry is replaced. When the write
// pushes the store over its bounds, the least-recently-used entries are
// evicted.
func (s *Store) Put(key string, man Manifest, payload []byte) error {
	man.Key = key
	if man.CreatedUnix == 0 {
		man.CreatedUnix = time.Now().Unix()
	}
	sum := sha256.Sum256(payload)
	hdr, err := json.Marshal(header{
		Schema:        SchemaVersion,
		Key:           key,
		PayloadSHA256: hex.EncodeToString(sum[:]),
		PayloadSize:   int64(len(payload)),
		Manifest:      man,
	})
	if err != nil {
		return s.putErr(fmt.Errorf("store: marshal header: %w", err))
	}
	data := make([]byte, 0, len(hdr)+1+len(payload))
	data = append(data, hdr...)
	data = append(data, '\n')
	data = append(data, payload...)

	path := s.EntryPath(key)
	var oldSize int64
	replaced := false
	if fi, err := os.Stat(path); err == nil {
		oldSize, replaced = fi.Size(), true
	}
	if err := WriteFileAtomic(path, data); err != nil {
		return s.putErr(fmt.Errorf("store: %w", err))
	}

	s.mu.Lock()
	s.puts++
	s.bytes += int64(len(data)) - oldSize
	if !replaced {
		s.entries++
	}
	over := s.entries > s.cfg.MaxEntries || s.bytes > s.cfg.MaxBytes
	if over {
		s.gcLocked()
	}
	s.syncGaugesLocked()
	s.mu.Unlock()
	s.met.puts.Inc()
	return nil
}

// Len returns the tracked entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries
}

// Size returns the tracked on-disk byte total.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Counters snapshots store activity. Entries and Bytes come from a scan
// of the directory, so they include what other processes sharing it
// wrote, and the pim_store_entries/pim_store_bytes gauges are refreshed to
// match. The scan costs a directory walk: call Counters from status and
// shutdown paths, not per job.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = s.scanLocked() // a failed walk keeps the tracked totals
	return Counters{
		Hits:      s.hits,
		Misses:    s.misses,
		Corrupt:   s.corrupt,
		Puts:      s.puts,
		PutErrors: s.putErrors,
		Evictions: s.evictions,
		Entries:   s.entries,
		Bytes:     s.bytes,
	}
}

// GC rescans the directory (correcting for other processes sharing it) and
// evicts least-recently-used entries until the store is within its bounds.
// It returns how many entries were evicted.
func (s *Store) GC() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gcLocked()
}

// entryInfo is one on-disk entry seen by a scan.
type entryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// scanLocked walks the objects tree, deletes orphaned temp files, resets
// the tracked entry/byte totals and returns the entries found.
// Caller holds s.mu.
func (s *Store) scanLocked() ([]entryInfo, error) {
	var ents []entryInfo
	root := filepath.Join(s.cfg.Dir, "objects")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a vanished file is not an error; GC races are fine
		}
		name := d.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			if fi, err := d.Info(); err == nil && time.Since(fi.ModTime()) > tmpOrphanAge {
				_ = os.Remove(path) // orphan from a crashed writer
			}
			return nil
		}
		if !strings.HasSuffix(name, entryExt) {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return nil
		}
		ents = append(ents, entryInfo{path: path, size: fi.Size(), mtime: fi.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scan: %w", err)
	}
	s.entries = len(ents)
	s.bytes = 0
	for _, e := range ents {
		s.bytes += e.size
	}
	s.syncGaugesLocked()
	return ents, nil
}

// gcLocked evicts oldest-mtime entries until within bounds. Caller holds
// s.mu.
func (s *Store) gcLocked() int {
	ents, err := s.scanLocked()
	if err != nil {
		return 0
	}
	if s.entries <= s.cfg.MaxEntries && s.bytes <= s.cfg.MaxBytes {
		return 0
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].mtime.Before(ents[j].mtime) })
	evicted := 0
	for _, e := range ents {
		if s.entries <= s.cfg.MaxEntries && s.bytes <= s.cfg.MaxBytes {
			break
		}
		if os.Remove(e.path) == nil {
			s.entries--
			s.bytes -= e.size
			s.evictions++
			evicted++
			s.met.evictions.Inc()
		}
	}
	s.syncGaugesLocked()
	return evicted
}

// syncGaugesLocked mirrors the tracked entry/byte totals into the live
// gauges. Caller holds s.mu.
func (s *Store) syncGaugesLocked() {
	s.met.entries.Set(float64(s.entries))
	s.met.bytes.Set(float64(s.bytes))
}

// discardCorrupt deletes a defective entry file and counts it as a miss.
func (s *Store) discardCorrupt(path string, size int64) {
	removed := os.Remove(path) == nil
	s.mu.Lock()
	s.misses++
	s.corrupt++
	if removed {
		s.entries--
		s.bytes -= size
	}
	s.syncGaugesLocked()
	s.mu.Unlock()
	s.met.misses.Inc()
	s.met.corrupt.Inc()
}

func (s *Store) putErr(err error) error {
	s.mu.Lock()
	s.putErrors++
	s.mu.Unlock()
	s.met.putErrs.Inc()
	return err
}

// decodeEntry validates an entry file against the requested key and
// returns its payload and manifest.
func decodeEntry(key string, raw []byte) ([]byte, Manifest, error) {
	nl := -1
	for i, b := range raw {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return nil, Manifest{}, fmt.Errorf("store: truncated entry (no header)")
	}
	var h header
	if err := json.Unmarshal(raw[:nl], &h); err != nil {
		return nil, Manifest{}, fmt.Errorf("store: corrupt header: %w", err)
	}
	if h.Schema != SchemaVersion {
		return nil, Manifest{}, fmt.Errorf("store: schema %q (want %q)", h.Schema, SchemaVersion)
	}
	if h.Key != key {
		return nil, Manifest{}, fmt.Errorf("store: entry key %q does not match %q", h.Key, key)
	}
	payload := raw[nl+1:]
	if int64(len(payload)) != h.PayloadSize {
		return nil, Manifest{}, fmt.Errorf("store: truncated payload: %d bytes, header says %d",
			len(payload), h.PayloadSize)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.PayloadSHA256 {
		return nil, Manifest{}, fmt.Errorf("store: payload checksum mismatch")
	}
	return payload, h.Manifest, nil
}

// WriteFileAtomic writes data to path via a same-directory temp file,
// fsync and rename, then best-effort fsyncs the directory so the rename
// itself is durable. The golden-baseline writer shares it.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, tmpPrefix)
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
