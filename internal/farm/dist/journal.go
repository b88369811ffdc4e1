package dist

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// JournalSchema identifies the journal record layout. A record carrying
// any other value is skipped on replay (a journal written by a future
// release never crashes an older coordinator).
const JournalSchema = "pim-render/journal/v1"

// journalFile is the append-only log's name inside the journal directory.
const journalFile = "journal.jsonl"

// compactMinTerminal is how many settled records must accumulate before a
// compaction rewrite is worth the IO.
const compactMinTerminal = 256

// Journal ops.
const (
	// OpEnqueue records a job entering the queue, with its full spec.
	OpEnqueue = "enqueue"
	// OpDone / OpFailed / OpCanceled settle a previously enqueued job.
	OpDone     = "done"
	OpFailed   = "failed"
	OpCanceled = "canceled"
)

// Record is one journal line. Enqueue records carry the job identity and
// spec; terminal records carry only the id they settle.
type Record struct {
	Schema string          `json:"schema"`
	Seq    uint64          `json:"seq"`
	Op     string          `json:"op"`
	ID     string          `json:"id"`
	Time   time.Time       `json:"time"`
	Key    string          `json:"key,omitempty"`
	Label  string          `json:"label,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`
}

// Journal is the coordinator's durable job log: an append-only JSONL file
// with one fsynced record per state change, following the same
// crash-safety discipline as internal/store. An enqueue record without a
// matching terminal record is a job the process died owing; Pending
// returns those for replay after a restart. When settled records pile up
// the file is compacted — the surviving enqueue records are rewritten
// through a temp file, fsync and atomic rename, so a crash mid-compaction
// leaves either the old or the new journal, never a torn one. A torn
// final line (the crash interrupting an append) is truncated away on
// open. Safe for concurrent use.
type Journal struct {
	mu       sync.Mutex
	dir      string
	f        *os.File
	seq      uint64
	pending  map[string]Record // id → enqueue record awaiting a terminal
	settled  int               // terminal records currently in the file
	appends  uint64
	compacts uint64
}

// OpenJournal opens (creating if needed) the journal in dir and replays
// the existing log into memory: Pending then lists the jobs a previous
// process never settled.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("dist: journal: no directory configured")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: journal: %w", err)
	}
	j := &Journal{dir: dir, pending: make(map[string]Record)}
	if err := j.load(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(j.path(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dist: journal: %w", err)
	}
	j.f = f
	return j, nil
}

func (j *Journal) path() string { return filepath.Join(j.dir, journalFile) }

// load reads the log, tolerating (and truncating away) a torn final line
// from a crashed append so later appends start on a clean boundary.
func (j *Journal) load() error {
	raw, err := os.ReadFile(j.path())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("dist: journal: %w", err)
	}
	good := 0 // byte offset past the last intact record
	for good < len(raw) {
		nl := bytes.IndexByte(raw[good:], '\n')
		if nl < 0 {
			break // no newline: a torn append from a crash
		}
		var rec Record
		if err := json.Unmarshal(raw[good:good+nl], &rec); err != nil {
			break // corrupt line: everything from here is discarded
		}
		good += nl + 1
		j.apply(rec)
	}
	if good < len(raw) {
		if err := os.Truncate(j.path(), int64(good)); err != nil {
			return fmt.Errorf("dist: journal: truncate torn tail: %w", err)
		}
	}
	return nil
}

// apply folds one record into the in-memory pending set.
func (j *Journal) apply(rec Record) {
	if rec.Schema != JournalSchema {
		return // future or foreign record: ignore, never fail
	}
	if rec.Seq > j.seq {
		j.seq = rec.Seq
	}
	switch rec.Op {
	case OpEnqueue:
		j.pending[rec.ID] = rec
	case OpDone, OpFailed, OpCanceled:
		if _, ok := j.pending[rec.ID]; ok {
			delete(j.pending, rec.ID)
			j.settled++
		}
	}
}

// Enqueue appends (and fsyncs) an enqueue record and returns its journal
// id. The id is stable across restarts: a replayed job settles the same
// record its original submission opened.
func (j *Journal) Enqueue(key, label string, spec json.RawMessage) (string, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	rec := Record{
		Schema: JournalSchema,
		Seq:    j.seq,
		Op:     OpEnqueue,
		ID:     fmt.Sprintf("j-%08d", j.seq),
		Time:   time.Now().UTC(),
		Key:    key,
		Label:  label,
		Spec:   spec,
	}
	if err := j.appendLocked(rec); err != nil {
		return "", err
	}
	j.pending[rec.ID] = rec
	return rec.ID, nil
}

// Terminal appends (and fsyncs) a terminal record settling id. Settling
// an id the journal does not hold pending is a no-op (the job was already
// settled, or predates the journal). When enough settled records
// accumulate the file is compacted in place.
func (j *Journal) Terminal(id, op string) error {
	switch op {
	case OpDone, OpFailed, OpCanceled:
	default:
		return fmt.Errorf("dist: journal: invalid terminal op %q", op)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.pending[id]; !ok {
		return nil
	}
	j.seq++
	rec := Record{Schema: JournalSchema, Seq: j.seq, Op: op, ID: id, Time: time.Now().UTC()}
	if err := j.appendLocked(rec); err != nil {
		return err
	}
	delete(j.pending, id)
	j.settled++
	if j.settled >= compactMinTerminal && j.settled >= len(j.pending) {
		return j.compactLocked()
	}
	return nil
}

// appendLocked writes one record line and fsyncs. Caller holds j.mu.
func (j *Journal) appendLocked(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("dist: journal: marshal: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("dist: journal: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("dist: journal: sync: %w", err)
	}
	j.appends++
	return nil
}

// compactLocked rewrites the journal with only the pending enqueue
// records (temp file, fsync, atomic rename, directory fsync) and reopens
// the append handle. Caller holds j.mu.
func (j *Journal) compactLocked() error {
	recs := j.pendingLocked()
	var buf bytes.Buffer
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("dist: journal: compact marshal: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	tmp, err := os.CreateTemp(j.dir, "tmp-journal-")
	if err != nil {
		return fmt.Errorf("dist: journal: compact: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("dist: journal: compact: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("dist: journal: compact: %w", err)
	}
	if err := os.Rename(tmpName, j.path()); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("dist: journal: compact: %w", err)
	}
	if d, err := os.Open(j.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	f, err := os.OpenFile(j.path(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("dist: journal: reopen after compact: %w", err)
	}
	j.f.Close()
	j.f = f
	j.settled = 0
	j.compacts++
	return nil
}

// Pending returns the enqueue records with no terminal record, in
// original submission order (sequence number, then id) — the jobs a
// restarted coordinator must replay.
func (j *Journal) Pending() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pendingLocked()
}

func (j *Journal) pendingLocked() []Record {
	out := make([]Record, 0, len(j.pending))
	for _, rec := range j.pending {
		out = append(out, rec)
	}
	// Ids break Seq ties (only a corrupt journal has them), so replay
	// order never depends on map iteration.
	slices.SortFunc(out, func(a, b Record) int {
		return cmp.Or(cmp.Compare(a.Seq, b.Seq), strings.Compare(a.ID, b.ID))
	})
	return out
}

// Len returns the number of pending (unsettled) records.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.pending)
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Close releases the journal's file handle. Records already appended stay
// durable; a journal is safe to reopen from another process afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
