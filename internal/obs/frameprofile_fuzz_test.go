package obs

import (
	"bytes"
	"testing"
)

// FuzzReadFrameProfile feeds arbitrary bytes to the frameprofile/v1
// decoder pimreport reads artifacts with. Whatever the input, decoding
// returns an error or a profile of the right schema — never a panic —
// and an accepted profile re-encodes to a canonical form that decodes
// back to itself, with every derived view computable. The seed corpus in
// testdata/fuzz/FuzzReadFrameProfile holds a valid profile, a wrong
// schema, truncated JSON and non-finite numbers.
func FuzzReadFrameProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		p, err := ReadFrameProfile(bytes.NewReader(doc))
		if err != nil {
			return
		}
		if p.Schema != FrameProfileSchema {
			t.Fatalf("accepted schema %q", p.Schema)
		}
		for _, fr := range p.Frames {
			for i := range fr.Timelines {
				tl := &fr.Timelines[i]
				tl.Utilization()
				tl.TotalBytes()
			}
			for i := range fr.Groups {
				fr.Groups[i].Cycles()
			}
		}
		var once, twice bytes.Buffer
		if err := p.WriteJSON(&once); err != nil {
			t.Fatalf("accepted profile does not re-encode: %v", err)
		}
		back, err := ReadFrameProfile(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded profile does not decode: %v", err)
		}
		if err := back.WriteJSON(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
