// Package dram implements the baseline GDDR5-like off-chip memory timing
// model: multiple independent channels, per-bank row-buffer state, burst
// occupancy on the data bus, and a simple queueing model that enforces both
// latency and peak-bandwidth limits. Timing parameters default to the
// paper's Table I configuration (128 GB/s peak at 1.25 GHz memory clock
// against a 1 GHz GPU clock).
package dram

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Timing holds DRAM core timing parameters, in memory-clock cycles.
type Timing struct {
	// TRCD is the row-activate to column-access delay.
	TRCD int
	// TRP is the precharge latency.
	TRP int
	// TCAS is the column access (CAS) latency.
	TCAS int
	// TBurst is the data-bus occupancy of one line-sized burst.
	TBurst int
	// TWR is the write-recovery latency added to writes.
	TWR int
	// TCCD is the column-to-column delay: successive accesses to an open
	// row pipeline at this rate.
	TCCD int
}

// DefaultTiming returns GDDR5-class timings.
func DefaultTiming() Timing {
	return Timing{TRCD: 12, TRP: 12, TCAS: 12, TBurst: 4, TWR: 12, TCCD: 4}
}

// Config describes a GDDR5 device array.
type Config struct {
	// Channels is the number of independent channels.
	Channels int
	// BanksPerChannel is the number of banks in each channel.
	BanksPerChannel int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
	// LineBytes is the transaction granularity.
	LineBytes int
	// MemClockGHz and GPUClockGHz convert memory cycles to GPU cycles.
	MemClockGHz float64
	GPUClockGHz float64
	// Timing are the core timings.
	Timing Timing
	// QueueDepth caps outstanding requests per channel; beyond it, new
	// arrivals see extra queueing delay.
	QueueDepth int
}

// DefaultConfig returns the Table I baseline: 128 GB/s peak.
// Peak = Channels * LineBytes/TBurst * MemClockGHz bytes/ns:
// 8 * 64/4 * 1.25 = 160 GB/s raw; with command overheads the sustainable
// peak is set to 128 GB/s by using an effective burst occupancy of 5.
func DefaultConfig() Config {
	return Config{
		Channels:        8,
		BanksPerChannel: 16,
		RowBytes:        2048,
		LineBytes:       mem.LineSize,
		MemClockGHz:     1.25,
		GPUClockGHz:     1.0,
		Timing:          Timing{TRCD: 12, TRP: 12, TCAS: 12, TBurst: 5, TWR: 12, TCCD: 4},
		QueueDepth:      32,
	}
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.BanksPerChannel <= 0 || c.RowBytes <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("dram: non-positive geometry")
	}
	if c.MemClockGHz <= 0 || c.GPUClockGHz <= 0 {
		return fmt.Errorf("dram: non-positive clocks")
	}
	if c.Timing.TBurst <= 0 {
		return fmt.Errorf("dram: non-positive burst time")
	}
	return nil
}

// Stats counts DRAM events.
type Stats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
	BytesRead uint64
	BytesWrit uint64
	// BusyCycles accumulates data-bus occupancy (GPU cycles) across channels.
	BusyCycles int64
}

// RowHitRate returns rowHits / (rowHits+rowMisses).
func (s Stats) RowHitRate() float64 {
	t := s.RowHits + s.RowMisses
	if t == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(t)
}

// bank tracks row-buffer state. Bank timing contributes latency (row
// hit/miss) while throughput is enforced by the channel bus meter: with 16
// banks per channel, column pipelining means the bus — not the banks — is
// the practical bandwidth limit, and modeling per-bank busy ratchets against
// out-of-order arrivals produces false serialization (see sim package docs).
type bank struct {
	openRow   int64
	rowOpened bool
}

type channel struct {
	banks []bank
	// bus meters the channel's data-bus bandwidth with backfill (see
	// sim.BandwidthMeter for why backfill matters here).
	bus *sim.BandwidthMeter
}

// GDDR5 is the baseline memory backend.
type GDDR5 struct {
	cfg       Config
	chans     []channel
	stats     Stats
	cyclesPer float64 // GPU cycles per memory cycle
	busyMax   int64
}

// New builds a GDDR5 backend; panics on invalid configuration.
func New(cfg Config) *GDDR5 {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := &GDDR5{cfg: cfg, cyclesPer: cfg.GPUClockGHz / cfg.MemClockGHz}
	perChannelBPC := float64(cfg.LineBytes) / (float64(cfg.Timing.TBurst) * g.cyclesPer)
	g.chans = make([]channel, cfg.Channels)
	for i := range g.chans {
		g.chans[i].banks = make([]bank, cfg.BanksPerChannel)
		g.chans[i].bus = sim.NewBandwidthMeter(32, perChannelBPC)
	}
	g.Reset()
	return g
}

// Name implements mem.Backend.
func (g *GDDR5) Name() string { return "gddr5" }

// PeakBandwidth returns bytes per GPU cycle at the data-bus peak.
func (g *GDDR5) PeakBandwidth() float64 {
	perChannel := float64(g.cfg.LineBytes) / (float64(g.cfg.Timing.TBurst) * g.cyclesPer)
	return perChannel * float64(g.cfg.Channels)
}

// BusyUntil implements mem.Backend.
func (g *GDDR5) BusyUntil() int64 { return g.busyMax }

// Reset implements mem.Backend. It clears the channels in place, keeping
// the meters' window storage and any attached tracer, so a reset backend
// allocates nothing and behaves exactly like a freshly built one.
func (g *GDDR5) Reset() {
	for i := range g.chans {
		ch := &g.chans[i]
		for b := range ch.banks {
			ch.banks[b] = bank{openRow: -1}
		}
		ch.bus.Reset()
	}
	g.stats = Stats{}
	g.busyMax = 0
}

// SetTracer routes channel data-bus reservations into the tracer as cycle
// spans (one track per channel); nil detaches. Implements
// obs.TraceAttacher; survives Reset.
func (g *GDDR5) SetTracer(t *obs.Tracer) {
	for i := range g.chans {
		name := ""
		if t != nil {
			name = fmt.Sprintf("dram.ch%02d.bus", i)
		}
		g.chans[i].bus.AttachTrace(t, name)
	}
}

// UtilizationHistograms implements obs.HistogramSource: per-channel
// data-bus utilization over time.
func (g *GDDR5) UtilizationHistograms(bins int) map[string][]float64 {
	out := map[string][]float64{}
	for i := range g.chans {
		if h := g.chans[i].bus.UtilizationHistogram(bins); h != nil {
			out[fmt.Sprintf("dram.ch%02d.bus", i)] = h
		}
	}
	return out
}

// BandwidthTimelines implements obs.TimelineSource: per-channel data-bus
// byte series over time, named exactly like UtilizationHistograms.
func (g *GDDR5) BandwidthTimelines(buckets int) map[string]obs.Timeline {
	out := map[string]obs.Timeline{}
	for i := range g.chans {
		if t := g.chans[i].bus.Timeline(buckets); !t.Empty() {
			out[fmt.Sprintf("dram.ch%02d.bus", i)] = t
		}
	}
	return out
}

// Stats returns a copy of the counters.
func (g *GDDR5) Stats() Stats { return g.stats }

// mc converts memory cycles to (rounded-up) GPU cycles.
func (g *GDDR5) mc(n int) int64 {
	v := float64(n) * g.cyclesPer
	i := int64(v)
	if float64(i) < v {
		i++
	}
	return i
}

// Access implements mem.Backend. Address mapping: low bits select the
// channel (line interleaving), then the bank, then the row — the standard
// GPU mapping that spreads streaming accesses across channels.
func (g *GDDR5) Access(now int64, req mem.Request) int64 {
	lineAddr := req.Addr / uint64(g.cfg.LineBytes)
	chIdx := int(lineAddr % uint64(g.cfg.Channels))
	rest := lineAddr / uint64(g.cfg.Channels)
	bankIdx := int(rest % uint64(g.cfg.BanksPerChannel))
	rowBytesLines := uint64(g.cfg.RowBytes / g.cfg.LineBytes)
	row := int64(rest / uint64(g.cfg.BanksPerChannel) / rowBytesLines)

	ch := &g.chans[chIdx]
	bk := &ch.banks[bankIdx]

	start := now

	// Row-buffer state machine.
	var coreLat int64
	if bk.rowOpened && bk.openRow == row {
		g.stats.RowHits++
		coreLat = g.mc(g.cfg.Timing.TCAS)
	} else {
		g.stats.RowMisses++
		pre := 0
		if bk.rowOpened {
			pre = g.cfg.Timing.TRP
		}
		coreLat = g.mc(pre + g.cfg.Timing.TRCD + g.cfg.Timing.TCAS)
		bk.rowOpened = true
		bk.openRow = row
	}

	// Data-bus bandwidth: one burst per line covered, metered with
	// backfill on the channel bus.
	lines := mem.LinesCovered(req.Addr, req.Size)
	if lines == 0 {
		lines = 1
	}
	burst := g.mc(g.cfg.Timing.TBurst) * int64(lines)

	dataStart := start + coreLat
	done := ch.bus.Reserve(dataStart, lines*g.cfg.LineBytes)
	if done < dataStart+burst {
		done = dataStart + burst
	}
	g.stats.BusyCycles += burst

	if req.Kind == mem.Write {
		// Write recovery charges extra bus occupancy rather than blocking
		// the bank (the meter absorbs it as reduced write bandwidth).
		ch.bus.Reserve(done, g.cfg.LineBytes/4)
		g.stats.Writes++
		g.stats.BytesWrit += uint64(req.Size)
	} else {
		g.stats.Reads++
		g.stats.BytesRead += uint64(req.Size)
	}

	if done > g.busyMax {
		g.busyMax = done
	}
	return done
}
