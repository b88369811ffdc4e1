package repro_test

import (
	"bytes"
	"context"
	"testing"

	"repro"
)

func TestWorkloadCatalog(t *testing.T) {
	if _, err := repro.Workload("doom3", 320, 240); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.Workload("nope", 320, 240); err == nil {
		t.Fatal("unknown game accepted")
	}
	if len(repro.TableII()) != 10 {
		t.Fatal("Table II catalog wrong size")
	}
	if len(repro.QuickSet()) != 6 || len(repro.MiniSet()) != 3 {
		t.Fatal("workload set sizes wrong")
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	wl, _ := repro.Workload("wolf", 320, 240)
	res, err := repro.SimulateContext(context.Background(), wl, repro.WithDesign(repro.ATFIM))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles() <= 0 || res.TextureTraffic() == 0 {
		t.Fatal("simulation produced no measurements")
	}
	var buf bytes.Buffer
	if err := repro.WritePNG(&buf, res.Image, wl.Width, wl.Height); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 1000 {
		t.Fatal("PNG suspiciously small")
	}
}

func TestPSNRFacade(t *testing.T) {
	a := make([]uint32, 16)
	p, err := repro.PSNR(a, a)
	if err != nil || p != 99 {
		t.Fatalf("identity PSNR %g err %v", p, err)
	}
}

func TestExperimentRegistry(t *testing.T) {
	names := repro.ExperimentNames()
	if len(names) != 14 {
		t.Fatalf("%d experiments registered", len(names))
	}
	static := map[string]bool{"table1": true, "table2": true, "fig7": true, "overhead": true}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate experiment %q", n)
		}
		seen[n] = true
		d, ok := repro.Registry().Get(n)
		if !ok {
			t.Fatalf("experiment %q listed but not gettable", n)
		}
		// The registry partitions exactly along the Static flag: the four
		// tables and analytic figures run with no workloads, every other
		// entry is a simulation sweep.
		if d.Name != n || d.Static != static[n] {
			t.Fatalf("experiment %q: name=%q static=%v, want static=%v", n, d.Name, d.Static, static[n])
		}
		if d.Static {
			if exp, err := repro.Registry().Run(context.Background(), n, nil); err != nil || exp == nil {
				t.Fatalf("static experiment %q without workloads: %v", n, err)
			}
		}
	}
	if _, err := repro.Registry().Run(context.Background(), "nope", nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunStaticExperiment(t *testing.T) {
	e, err := repro.Registry().Run(context.Background(), "table1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Table.NumRows() == 0 {
		t.Fatal("empty Table I")
	}
}
