package dtrace

import "testing"

// FuzzParse feeds arbitrary strings to the traceparent decoder that
// reads the trace context of every lease grant and journaled job. An accepted
// context is valid and survives a round trip through its wire form; a
// "00" or "01" flags field round-trips byte for byte. The seed corpus in
// testdata/fuzz/FuzzParse holds sampled and unsampled contexts, other
// flags, a wrong version, all-zero IDs and uppercase hex.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		c, ok := Parse(s)
		if !ok {
			if c != (Context{}) {
				t.Fatalf("rejected %q but returned %+v", s, c)
			}
			return
		}
		if !c.Valid() {
			t.Fatalf("accepted invalid context %+v from %q", c, s)
		}
		back, ok := Parse(c.String())
		if !ok || back != c {
			t.Fatalf("round trip of %q: %+v -> %q -> %+v, %v", s, c, c.String(), back, ok)
		}
		if (s[len(s)-2:] == "00" || s[len(s)-2:] == "01") && c.String() != s {
			t.Fatalf("Parse(%q).String() = %q", s, c.String())
		}
	})
}
