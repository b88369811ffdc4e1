package suite

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the suite/v1 decoder behind
// paperbench -suite and POST /v1/suites. A rejected document returns no
// suite; an accepted one holds the loader's invariants (a name, unique
// case IDs, every selected spec resolvable) and re-encodes to a document
// that parses back to the same bytes. The seed corpus in
// testdata/fuzz/FuzzParse holds valid suites with and without defaults
// and tolerances, and documents each validation rule rejects.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			if s != nil {
				t.Fatalf("rejected document returned a suite: %v", err)
			}
			return
		}
		if s.Schema != Schema || s.Name == "" || len(s.Cases) == 0 {
			t.Fatalf("accepted suite breaks the envelope rules: %+v", s)
		}
		ids := map[string]bool{}
		for _, c := range s.Select(Filter{}) {
			if ids[c.ID] {
				t.Fatalf("accepted duplicate case id %q", c.ID)
			}
			ids[c.ID] = true
			if _, err := c.Spec.Resolve(); err != nil {
				t.Fatalf("accepted case %s does not resolve: %v", c.ID, err)
			}
		}
		checkRoundTrip(t, s, func(b []byte) (any, error) { return Parse(b) })
	})
}

// FuzzParseSpec feeds arbitrary bytes to the strict standalone spec/v1
// decoder. Decoding and
// resolving never panic, an accepted spec re-encodes to a document that
// parses back to the same bytes, and the re-parsed spec resolves to the
// same cache key. The seed corpus in testdata/fuzz/FuzzParseSpec holds
// minimal and fully-populated specs, unknown fields, bad designs and
// schemas, and configurations Resolve rejects.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			if sp != nil {
				t.Fatalf("rejected spec returned a value: %v", err)
			}
			return
		}
		rv, rerr := sp.Resolve()
		back := checkRoundTrip(t, sp, func(b []byte) (any, error) { return ParseSpec(b) }).(*Spec)
		rv2, rerr2 := back.Resolve()
		if (rerr == nil) != (rerr2 == nil) || rv.Key != rv2.Key {
			t.Fatalf("round trip changed resolution: %q, %v -> %q, %v", rv.Key, rerr, rv2.Key, rerr2)
		}
	})
}

// checkRoundTrip encodes v, parses the encoding with parse and asserts the
// result encodes to the same bytes. It returns the re-parsed value.
func checkRoundTrip(t *testing.T, v any, parse func([]byte) (any, error)) any {
	t.Helper()
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("encode accepted document: %v", err)
	}
	back, err := parse(enc)
	if err != nil {
		t.Fatalf("re-parse of %s: %v", enc, err)
	}
	enc2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("round trip changed the document:\n%s\n%s", enc, enc2)
	}
	return back
}
