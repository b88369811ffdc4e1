package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro"
	"repro/internal/obs"
)

// referenceSchema identifies the committed correctness reference.
const referenceSchema = "perfbench/reference/v1"

// Frame workloads render the mid frame at 160x120; the serve-dist catalog
// is at the same size over camera frames 1-7 of every game under every
// design.
const (
	frameW, frameH = 160, 120
	serveW, serveH = 160, 120
	serveFrames    = 7
)

var allDesigns = []repro.Design{repro.Baseline, repro.BPIM, repro.STFIM, repro.ATFIM}

// specKey names one rendered frame: game, resolution, design and camera
// frame ("mid" is the mid-flythrough default, frame index 0).
func specKey(game string, w, h int, d repro.Design, frame int) string {
	f := "mid"
	if frame > 0 {
		f = fmt.Sprint(frame)
	}
	return fmt.Sprintf("%s@%dx%d/%s/%s", game, w, h, d, f)
}

// refEntry is one spec's expected output: the metrics/v1 snapshot with the
// provenance stamps (sim_version, build) and the bandwidth histograms cut
// out, a hash of those histograms, and a hash of the rendered image.
type refEntry struct {
	Snapshot         json.RawMessage `json:"snapshot"`
	HistogramsSHA256 string          `json:"histograms_sha256,omitempty"`
	ImageSHA256      string          `json:"image_sha256"`
}

type reference struct {
	Schema string              `json:"schema"`
	Specs  map[string]refEntry `json:"specs"`
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("parse reference %s: %w", path, err)
	}
	if ref.Schema != referenceSchema {
		return nil, fmt.Errorf("reference %s: schema %q, want %q", path, ref.Schema, referenceSchema)
	}
	// Re-encode every snapshot once, so checks compare canonical bytes.
	for k, e := range ref.Specs {
		var s obs.Snapshot
		if err := json.Unmarshal(e.Snapshot, &s); err != nil {
			return nil, fmt.Errorf("reference %s: %s: %w", path, k, err)
		}
		if e.Snapshot, _, err = canonical(&s); err != nil {
			return nil, fmt.Errorf("reference %s: %s: %w", path, k, err)
		}
		ref.Specs[k] = e
	}
	return &ref, nil
}

// canonical returns the snapshot's comparable form: provenance and
// histograms removed, encoded as JSON (maps in sorted key order).
func canonical(s *obs.Snapshot) (snap []byte, histHash string, err error) {
	c := *s
	c.SimVersion, c.Build, c.Histograms = "", nil, nil
	snap, err = json.Marshal(&c)
	if err != nil {
		return nil, "", err
	}
	if len(s.Histograms) > 0 {
		h, err := json.Marshal(s.Histograms)
		if err != nil {
			return nil, "", err
		}
		sum := sha256.Sum256(h)
		histHash = hex.EncodeToString(sum[:])
	}
	return snap, histHash, nil
}

func imageHash(pix []uint32) string {
	h := sha256.New()
	var b [4]byte
	for _, p := range pix {
		binary.LittleEndian.PutUint32(b[:], p)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check compares one output against the reference. image is nil when the
// producer does not expose the rendered frame (the farm API serves only
// metrics); checkHist is false when the producer cannot compute
// bandwidth histograms (the benchmark's own decorated pipeline).
func (r *reference) check(key string, s *obs.Snapshot, image []uint32, checkHist bool) error {
	want, ok := r.Specs[key]
	if !ok {
		return fmt.Errorf("%s: no reference entry", key)
	}
	got, hist, err := canonical(s)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if string(got) != string(want.Snapshot) {
		return fmt.Errorf("%s: snapshot differs from reference:\n got  %s\n want %s", key, got, want.Snapshot)
	}
	if checkHist && hist != want.HistogramsSHA256 {
		return fmt.Errorf("%s: bandwidth histograms hash %s, reference %s", key, hist, want.HistogramsSHA256)
	}
	if image != nil && imageHash(image) != want.ImageSHA256 {
		return fmt.Errorf("%s: image hash %s, reference %s", key, imageHash(image), want.ImageSHA256)
	}
	return nil
}

// referenceSpecs lists every spec the benchmark checks: the frame
// workloads' ten (five games, A-TFIM and Baseline, 160x120 mid frame) and
// the serve-dist catalog's 140.
type refSpec struct {
	game   string
	w, h   int
	design repro.Design
	frame  int
}

func referenceSpecs() []refSpec {
	var out []refSpec
	for _, g := range games {
		for _, d := range []repro.Design{repro.ATFIM, repro.Baseline} {
			out = append(out, refSpec{g, frameW, frameH, d, 0})
		}
	}
	out = append(out, serveCatalog()...)
	return out
}

// serveCatalog is the serve-dist spec catalog in a fixed order.
func serveCatalog() []refSpec {
	var out []refSpec
	for _, g := range games {
		for _, d := range allDesigns {
			for f := 1; f <= serveFrames; f++ {
				out = append(out, refSpec{g, serveW, serveH, d, f})
			}
		}
	}
	return out
}

// writeReference simulates every reference spec and writes the reference
// file, one spec per line. It runs only when asked for explicitly
// (-regen-reference); the benchmark never rewrites its reference.
func writeReference(ctx context.Context, path string, progress func(string)) error {
	ref := reference{Schema: referenceSchema, Specs: map[string]refEntry{}}
	for _, s := range referenceSpecs() {
		wl, err := repro.Workload(s.game, s.w, s.h)
		if err != nil {
			return err
		}
		res, err := repro.SimulateContext(ctx, wl, repro.WithDesign(s.design), repro.WithFrameIndex(s.frame))
		if err != nil {
			return fmt.Errorf("simulate %s: %w", specKey(s.game, s.w, s.h, s.design, s.frame), err)
		}
		snap, hist, err := canonical(res.Metrics())
		if err != nil {
			return err
		}
		key := specKey(s.game, s.w, s.h, s.design, s.frame)
		ref.Specs[key] = refEntry{Snapshot: snap, HistogramsSHA256: hist, ImageSHA256: imageHash(res.Image)}
		progress(key)
	}
	keys := make([]string, 0, len(ref.Specs))
	for k := range ref.Specs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"schema\": %q, \"specs\": {\n", referenceSchema)
	for i, k := range keys {
		line, err := json.Marshal(ref.Specs[k])
		if err != nil {
			f.Close()
			return err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "%q: %s%s\n", k, line, sep)
	}
	fmt.Fprintln(w, "}}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
