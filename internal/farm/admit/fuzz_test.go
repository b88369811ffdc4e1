package admit

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadTenants feeds arbitrary bytes to the -tenants file loader.
// Whatever the file holds, LoadTenants returns an error or a set — never a
// panic — and an accepted set authorizes every configured tenant as
// itself: each keyed tenant by its key, each unkeyed one by its name. The
// seed corpus in testdata/fuzz/FuzzLoadTenants holds valid files, an
// allow-unknown set, duplicate names and keys, a nameless tenant, a
// foreign schema, an unknown field and truncated JSON.
func FuzzLoadTenants(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "tenants.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := LoadTenants(path)
		if err != nil {
			return
		}
		// The loader decodes the first JSON value only; read it the same
		// way to enumerate what the set must honour.
		var doc tenantsFile
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&doc); err != nil {
			t.Fatalf("accepted a file that does not decode: %v", err)
		}
		if s.Len() != len(doc.Tenants) {
			t.Fatalf("set holds %d tenants, file lists %d", s.Len(), len(doc.Tenants))
		}
		for _, want := range doc.Tenants {
			got, err := s.Authorize(want.Key, want.Name)
			if err != nil {
				t.Fatalf("tenant %q (key %q) not authorized: %v", want.Name, want.Key, err)
			}
			if got.Name != want.Name || got.Key != want.Key {
				t.Fatalf("credentials of %q (key %q) authorized %q (key %q)", want.Name, want.Key, got.Name, got.Key)
			}
		}
	})
}
