// Package hmc models a Hybrid Memory Cube as described in the paper's
// Section III and the HMC 2.0 specification the paper cites: DRAM dies
// stacked over a CMOS logic layer, partitioned into 32 vaults (each a
// controller plus 8 banks reached over TSVs), with the cube attached to the
// host GPU through full-duplex high-speed serial links.
//
// Two access paths are exposed:
//
//   - External: host GPU -> link (serialized packet) -> switch -> vault ->
//     TSV -> bank, then the response returns over the link. Peak external
//     bandwidth defaults to 320 GB/s (HMC 2.0).
//   - Internal: logic layer -> switch -> vault -> TSV -> bank. No link
//     serialization; peak internal bandwidth defaults to 512 GB/s. This is
//     the path the S-TFIM MTUs and the A-TFIM filtering units use.
package hmc

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config describes one cube.
type Config struct {
	// Vaults is the number of vaults (controller + bank stack).
	Vaults int
	// BanksPerVault is the number of DRAM banks in each vault.
	BanksPerVault int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
	// LineBytes is the transaction granularity.
	LineBytes int
	// Links is the number of full-duplex serial links to the host.
	Links int
	// ExternalGBs is the aggregate external link bandwidth (GB/s, both
	// directions combined as in the paper's "320 GB/s of peak external
	// memory bandwidth").
	ExternalGBs float64
	// InternalGBs is the aggregate vault/TSV bandwidth (GB/s).
	InternalGBs float64
	// MemClockGHz and GPUClockGHz convert memory cycles to GPU cycles.
	MemClockGHz float64
	GPUClockGHz float64
	// TSVLatencyCycles is the TSV traversal latency in memory cycles
	// (1 cycle per the paper, citing CACTI-3DD).
	TSVLatencyCycles int
	// SwitchLatencyCycles is the logic-layer switch traversal latency in
	// GPU cycles.
	SwitchLatencyCycles int
	// LinkLatencyCycles is the fixed serialization/deserialization latency
	// of a link traversal in GPU cycles (SerDes + flight).
	LinkLatencyCycles int
	// PacketHeaderBytes is the header+tail framing overhead per packet.
	PacketHeaderBytes int
	// ReadRequestBytes is the size of a plain read-request packet payload.
	ReadRequestBytes int
	// Timing are the DRAM core timings of the stacked dies.
	TRCD, TRP, TCAS, TBurst, TWR, TCCD int
	// QueueDepth bounds outstanding requests per vault.
	QueueDepth int
}

// DefaultConfig returns the paper's Table I HMC: 32 vaults, 8 banks/vault,
// 320 GB/s external, 512 GB/s internal, 1 cycle TSV latency.
func DefaultConfig() Config {
	return Config{
		Vaults:              32,
		BanksPerVault:       8,
		RowBytes:            2048,
		LineBytes:           mem.LineSize,
		Links:               4,
		ExternalGBs:         320,
		InternalGBs:         512,
		MemClockGHz:         1.25,
		GPUClockGHz:         1.0,
		TSVLatencyCycles:    1,
		SwitchLatencyCycles: 2,
		LinkLatencyCycles:   8,
		PacketHeaderBytes:   16,
		ReadRequestBytes:    16,
		TRCD:                11,
		TRP:                 11,
		TCAS:                11,
		TBurst:              4,
		TWR:                 11,
		TCCD:                4,
		QueueDepth:          64,
	}
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	if c.Vaults <= 0 || c.BanksPerVault <= 0 || c.Links <= 0 {
		return fmt.Errorf("hmc: non-positive geometry")
	}
	if c.ExternalGBs <= 0 || c.InternalGBs <= 0 {
		return fmt.Errorf("hmc: non-positive bandwidth")
	}
	if c.MemClockGHz <= 0 || c.GPUClockGHz <= 0 {
		return fmt.Errorf("hmc: non-positive clocks")
	}
	return nil
}

// Stats counts cube events.
type Stats struct {
	ExternalReads   uint64
	ExternalWrites  uint64
	InternalReads   uint64
	InternalWrites  uint64
	RowHits         uint64
	RowMisses       uint64
	LinkBytesTx     uint64 // host -> cube
	LinkBytesRx     uint64 // cube -> host
	VaultBytes      uint64
	LinkBusyCycles  int64
	VaultBusyCycles int64
}

// vaultBank tracks row-buffer state; throughput is enforced by the vault's
// TSV meter (see the dram package's bank comment for the rationale).
type vaultBank struct {
	openRow   int64
	rowOpened bool
}

type vault struct {
	banks []vaultBank
	// tsv meters the vault's TSV bandwidth with backfill.
	tsv *sim.BandwidthMeter
}

// HMC is the cube model. It implements mem.Backend for the external path
// (B-PIM uses it as a drop-in replacement for GDDR5) and exposes
// InternalAccess for logic-layer units.
type HMC struct {
	cfg       Config
	vaults    []vault
	linkTx    *sim.BandwidthMeter // host -> cube (all links aggregated)
	linkRx    *sim.BandwidthMeter // cube -> host
	stats     Stats
	cyclesPer float64 // GPU cycles per memory cycle
	linkBPC   float64 // bytes per GPU cycle, aggregate per direction
	tsvBPC    float64 // bytes per GPU cycle per vault
	busyMax   int64

	tracePrefix string // distinguishes cubes within an Array
}

// New builds a cube; panics on invalid configuration.
func New(cfg Config) *HMC {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &HMC{cfg: cfg, cyclesPer: cfg.GPUClockGHz / cfg.MemClockGHz}
	// Full duplex: each direction carries the full aggregate link
	// bandwidth (the "320 GB/s of peak external memory bandwidth" of the
	// HMC 2.0 spec is per-direction at full width).
	h.linkBPC = cfg.ExternalGBs / cfg.GPUClockGHz
	h.tsvBPC = cfg.InternalGBs / float64(cfg.Vaults) / cfg.GPUClockGHz
	h.vaults = make([]vault, cfg.Vaults)
	for i := range h.vaults {
		h.vaults[i].banks = make([]vaultBank, cfg.BanksPerVault)
		h.vaults[i].tsv = sim.NewBandwidthMeter(32, h.tsvBPC)
	}
	h.linkTx = sim.NewBandwidthMeter(32, h.linkBPC)
	h.linkRx = sim.NewBandwidthMeter(32, h.linkBPC)
	h.Reset()
	return h
}

// Name implements mem.Backend.
func (h *HMC) Name() string { return "hmc" }

// PeakBandwidth returns the external peak in bytes/GPU-cycle.
func (h *HMC) PeakBandwidth() float64 {
	return h.cfg.ExternalGBs / h.cfg.GPUClockGHz
}

// InternalPeakBandwidth returns the internal peak in bytes/GPU-cycle.
func (h *HMC) InternalPeakBandwidth() float64 {
	return h.cfg.InternalGBs / h.cfg.GPUClockGHz
}

// BusyUntil implements mem.Backend.
func (h *HMC) BusyUntil() int64 { return h.busyMax }

// Reset implements mem.Backend. It clears the cube in place, keeping the
// meters' window storage and any attached tracer, so a reset cube
// allocates nothing and behaves exactly like a freshly built one.
func (h *HMC) Reset() {
	for i := range h.vaults {
		v := &h.vaults[i]
		for b := range v.banks {
			v.banks[b] = vaultBank{openRow: -1}
		}
		v.tsv.Reset()
	}
	h.linkTx.Reset()
	h.linkRx.Reset()
	h.stats = Stats{}
	h.busyMax = 0
}

// SetTracer routes link and vault-TSV reservations into the tracer as
// cycle spans; nil detaches. Implements obs.TraceAttacher; survives Reset.
func (h *HMC) SetTracer(t *obs.Tracer) { h.SetTrace(t, "") }

// SetTrace attaches a tracer with a track prefix ("cube0." etc.) so cubes
// in an Array keep distinct timeline rows.
func (h *HMC) SetTrace(t *obs.Tracer, prefix string) {
	h.tracePrefix = prefix
	// A nil tracer detaches every meter without building track names.
	track := func(name string) string {
		if t == nil {
			return ""
		}
		return prefix + name
	}
	h.linkTx.AttachTrace(t, track("hmc.link.tx"))
	h.linkRx.AttachTrace(t, track("hmc.link.rx"))
	for i := range h.vaults {
		name := ""
		if t != nil {
			name = fmt.Sprintf("%shmc.vault%02d.tsv", prefix, i)
		}
		h.vaults[i].tsv.AttachTrace(t, name)
	}
}

// UtilizationHistograms implements obs.HistogramSource: link and per-vault
// TSV utilization over time.
func (h *HMC) UtilizationHistograms(bins int) map[string][]float64 {
	out := map[string][]float64{}
	if hist := h.linkTx.UtilizationHistogram(bins); hist != nil {
		out[h.tracePrefix+"hmc.link.tx"] = hist
	}
	if hist := h.linkRx.UtilizationHistogram(bins); hist != nil {
		out[h.tracePrefix+"hmc.link.rx"] = hist
	}
	for i := range h.vaults {
		if hist := h.vaults[i].tsv.UtilizationHistogram(bins); hist != nil {
			out[fmt.Sprintf("%shmc.vault%02d.tsv", h.tracePrefix, i)] = hist
		}
	}
	return out
}

// BandwidthTimelines implements obs.TimelineSource: link and per-vault
// TSV byte series over time, named exactly like UtilizationHistograms.
func (h *HMC) BandwidthTimelines(buckets int) map[string]obs.Timeline {
	out := map[string]obs.Timeline{}
	if t := h.linkTx.Timeline(buckets); !t.Empty() {
		out[h.tracePrefix+"hmc.link.tx"] = t
	}
	if t := h.linkRx.Timeline(buckets); !t.Empty() {
		out[h.tracePrefix+"hmc.link.rx"] = t
	}
	for i := range h.vaults {
		if t := h.vaults[i].tsv.Timeline(buckets); !t.Empty() {
			out[fmt.Sprintf("%shmc.vault%02d.tsv", h.tracePrefix, i)] = t
		}
	}
	return out
}

// Stats returns a copy of the counters.
func (h *HMC) Stats() Stats { return h.stats }

// Config returns the cube configuration.
func (h *HMC) Config() Config { return h.cfg }

func (h *HMC) mc(n int) int64 {
	v := float64(n) * h.cyclesPer
	i := int64(v)
	if float64(i) < v {
		i++
	}
	return i
}

func (h *HMC) serCycles(bytes int, bpc float64) int64 {
	if bytes <= 0 {
		return 0
	}
	v := float64(bytes) / bpc
	i := int64(v)
	if float64(i) < v {
		i++
	}
	if i < 1 {
		i = 1
	}
	return i
}

// vaultAccess schedules one line-granular DRAM access inside a vault,
// starting no earlier than `start`, and returns its completion cycle.
// Vaults interleave at line granularity (maximum parallelism for the child
// texel bursts the logic-layer units issue).
func (h *HMC) vaultAccess(start int64, addr uint64, size uint32, write bool) int64 {
	lineAddr := addr / uint64(h.cfg.LineBytes)
	vIdx := int(lineAddr % uint64(h.cfg.Vaults))
	rest := lineAddr / uint64(h.cfg.Vaults)
	bIdx := int(rest % uint64(h.cfg.BanksPerVault))
	rowLines := uint64(h.cfg.RowBytes / h.cfg.LineBytes)
	row := int64(rest / uint64(h.cfg.BanksPerVault) / rowLines)

	v := &h.vaults[vIdx]
	bk := &v.banks[bIdx]

	var coreLat int64
	if bk.rowOpened && bk.openRow == row {
		h.stats.RowHits++
		coreLat = h.mc(h.cfg.TCAS)
	} else {
		h.stats.RowMisses++
		pre := 0
		if bk.rowOpened {
			pre = h.cfg.TRP
		}
		coreLat = h.mc(pre + h.cfg.TRCD + h.cfg.TCAS)
		bk.rowOpened = true
		bk.openRow = row
	}

	// TSV bandwidth enforced per vault with backfill. Unlike the external
	// path (which moves whole cache lines), vault accesses are charged at
	// their actual size: fine-grained access is one of the PIM advantages
	// the logic-layer units exploit (16-byte granules for child texels).
	bytes := int(size)
	if bytes < 16 {
		bytes = 16
	}
	tsvOcc := h.serCycles(bytes, h.tsvBPC)
	dataStart := start + coreLat + h.mc(h.cfg.TSVLatencyCycles)
	done := v.tsv.Reserve(dataStart, bytes)
	if done < dataStart+tsvOcc {
		done = dataStart + tsvOcc
	}
	h.stats.VaultBusyCycles += tsvOcc
	h.stats.VaultBytes += uint64(bytes)

	if write {
		// Write recovery charges extra TSV occupancy.
		v.tsv.Reserve(done, h.cfg.LineBytes/4)
	}

	if done > h.busyMax {
		h.busyMax = done
	}
	return done
}

// sendTx schedules a host->cube packet of the given total byte size on the
// transmit direction (full duplex, bandwidth-metered with backfill) and
// returns its arrival cycle at the switch.
func (h *HMC) sendTx(now int64, bytes int) int64 {
	done := h.linkTx.Reserve(now, bytes)
	h.stats.LinkBytesTx += uint64(bytes)
	arrive := done + int64(h.cfg.LinkLatencyCycles) + int64(h.cfg.SwitchLatencyCycles)
	if arrive > h.busyMax {
		h.busyMax = arrive
	}
	return arrive
}

// sendRx schedules a cube->host packet on the receive direction and
// returns its arrival at the host.
func (h *HMC) sendRx(now int64, bytes int) int64 {
	done := h.linkRx.Reserve(now, bytes)
	h.stats.LinkBytesRx += uint64(bytes)
	arrive := done + int64(h.cfg.LinkLatencyCycles)
	if arrive > h.busyMax {
		h.busyMax = arrive
	}
	return arrive
}

// Access implements mem.Backend: the external path used when the HMC serves
// as a plain main memory (B-PIM). A read sends a request packet out, crosses
// the switch, performs the vault access, and returns header+data; a write
// sends header+data out and completes at the vault.
func (h *HMC) Access(now int64, req mem.Request) int64 {
	switch req.Kind {
	case mem.Read:
		h.stats.ExternalReads++
		arrive := h.sendTx(now, h.cfg.PacketHeaderBytes+h.cfg.ReadRequestBytes)
		vdone := h.vaultAccess(arrive, req.Addr, req.Size, false)
		return h.sendRx(vdone+int64(h.cfg.SwitchLatencyCycles), h.cfg.PacketHeaderBytes+int(req.Size))
	default:
		h.stats.ExternalWrites++
		arrive := h.sendTx(now, h.cfg.PacketHeaderBytes+int(req.Size))
		return h.vaultAccess(arrive, req.Addr, req.Size, true)
	}
}

// InternalAccess performs a logic-layer access that never crosses the
// external links: switch -> vault -> TSV -> bank. Used by the S-TFIM MTUs
// and the A-TFIM Texel Generator / Combination Unit.
func (h *HMC) InternalAccess(now int64, req mem.Request) int64 {
	if req.Kind == mem.Read {
		h.stats.InternalReads++
	} else {
		h.stats.InternalWrites++
	}
	start := now + int64(h.cfg.SwitchLatencyCycles)
	return h.vaultAccess(start, req.Addr, req.Size, req.Kind == mem.Write)
}

// SendPacket models an explicit host->cube packet carrying payloadBytes of
// live data (plus framing); returns the arrival cycle at the logic layer.
// Used for the TFIM request packages.
func (h *HMC) SendPacket(now int64, payloadBytes int) int64 {
	return h.sendTx(now, h.cfg.PacketHeaderBytes+payloadBytes)
}

// ReturnPacket models an explicit cube->host packet; returns arrival at the
// host. Used for the TFIM response packages.
func (h *HMC) ReturnPacket(now int64, payloadBytes int) int64 {
	return h.sendRx(now, h.cfg.PacketHeaderBytes+payloadBytes)
}
