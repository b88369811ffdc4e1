package main

import (
	"context"
	"reflect"
	"testing"

	"repro"
	"repro/internal/config"
)

// The decorators only observe: a frame rendered through them has the same
// metrics snapshot (bandwidth histograms aside, which need the backend the
// decorated run does not attach) and the same image as SimulateContext.
func TestDecoratorsTransparent(t *testing.T) {
	wl, err := repro.Workload("riddick", 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	sc := buildScene(wl)
	for _, d := range allDesigns {
		t.Run(d.String(), func(t *testing.T) {
			want, err := repro.SimulateContext(context.Background(), wl, repro.WithDesign(d))
			if err != nil {
				t.Fatal(err)
			}
			got, err := renderTraced(context.Background(), sc, wl, config.Design(d))
			if err != nil {
				t.Fatal(err)
			}
			ws, _, err := canonical(want.Metrics())
			if err != nil {
				t.Fatal(err)
			}
			gs, _, err := canonical(got.result.Metrics())
			if err != nil {
				t.Fatal(err)
			}
			if string(gs) != string(ws) {
				t.Fatalf("traced snapshot differs:\n got  %s\n want %s", gs, ws)
			}
			if !reflect.DeepEqual(got.result.Image, want.Image) {
				t.Fatal("traced image differs")
			}

			c := got.total
			if uint64(c.tfimCalls) != want.Frame.Activity.Path.TexRequests {
				t.Errorf("tfim.sample_calls = %d, texture requests %d", c.tfimCalls, want.Frame.Activity.Path.TexRequests)
			}
			onHMC := d != repro.Baseline
			if (c.hmcAccessCalls > 0) != onHMC || (c.dramCalls > 0) == onHMC {
				t.Errorf("memory calls: hmc %d, dram %d on %s", c.hmcAccessCalls, c.dramCalls, d)
			}
			offload := d == repro.STFIM || d == repro.ATFIM
			if (c.hmcPktCalls > 0) != offload || (c.hmcIntCalls > 0) != offload {
				t.Errorf("offload calls: packets %d, internal %d on %s", c.hmcPktCalls, c.hmcIntCalls, d)
			}
			if got.stages.fragment <= 0 || got.stages.geometry <= 0 {
				t.Errorf("stage times not taken: %+v", got.stages)
			}
		})
	}
}
