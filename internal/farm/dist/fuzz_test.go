package dist

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzOpenJournal feeds arbitrary bytes to journal replay: they are
// written as journal.jsonl and opened, as a restarted coordinator opens a
// crash-torn or corrupted journal. Opening never panics, the pending set
// holds only enqueue records of the current schema in sequence order, and
// replay is deterministic: the same bytes opened in a second directory,
// and the first directory reopened after its torn tail was truncated,
// give the same pending set. The seed corpus in
// testdata/fuzz/FuzzOpenJournal holds settled and unsettled jobs, torn
// and corrupt lines, foreign schemas and out-of-order sequence numbers.
func FuzzOpenJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		open := func(dir string) []Record {
			t.Helper()
			j, err := OpenJournal(dir)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer j.Close()
			return j.Pending()
		}
		write := func() string {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}
		first := write()
		pend := open(first)
		for i, rec := range pend {
			if rec.Schema != JournalSchema || rec.Op != OpEnqueue {
				t.Fatalf("pending record %d is %q/%q, want an enqueue", i, rec.Schema, rec.Op)
			}
			if i > 0 && rec.Seq < pend[i-1].Seq {
				t.Fatalf("pending out of sequence order: %d after %d", rec.Seq, pend[i-1].Seq)
			}
		}
		if again := open(write()); !reflect.DeepEqual(again, pend) {
			t.Fatalf("same bytes replayed differently:\n%+v\n%+v", pend, again)
		}
		if reopened := open(first); !reflect.DeepEqual(reopened, pend) {
			t.Fatalf("reopen after truncation replayed differently:\n%+v\n%+v", pend, reopened)
		}
	})
}
