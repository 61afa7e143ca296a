// Package gem5 implements the Gem5-like out-of-order simulator behind
// the GeFIN injector, for both the x86-flavoured and the ARM-flavoured
// ISA. Its distinguishing microarchitectural traits — each the mirror
// image of a MARSS trait the paper's differential analysis leans on —
// are:
//
//   - split 16-entry load and store queues where only the store queue
//     holds data, so LSQ injections affect stores only (Remark 1);
//   - conservative load issue: a load waits until every older store
//     address has resolved (Remark 3);
//   - true write-back caches: the data array is the only copy of a
//     dirty line, and evictions push its contents — corruption included
//     — down the hierarchy (Remark 3);
//   - no hypervisor: system calls execute through the cache hierarchy
//     (Remarks 3 and 6);
//   - a tournament predictor whose final decision is bound to the
//     global history, with the branch address not participating, and a
//     unified direct-mapped 2K-entry BTB (Remark 6);
//   - compact, infrequent assertion checking: corrupted state
//     propagates until it crashes architecturally or takes the
//     simulator down (Remark 8).
package gem5

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/ooo"
)

// traits is Gem5's side of every design difference the differential
// analysis names — the zero value: each MARSS trait is absent. Both ISAs
// share it; the cycle loop is internal/ooo.
var traits = ooo.Traits{
	UnifiedLSQ:         false,
	SpeculativeLoads:   false,
	HypervisorSyscalls: false,
	ChoiceByAddress:    false,
	DenseAsserts:       false,
}

// Traits returns a copy of the Gem5 trait table, for reports and tests.
func Traits() ooo.Traits { return traits }

// New boots a simulated machine with the image. The image's ISA must
// match the configuration.
func New(cfg Config, img *asm.Image) *ooo.CPU {
	if string(cfg.ISA) != img.ISA {
		panic(fmt.Sprintf("gem5: config ISA %q does not match image ISA %q", cfg.ISA, img.ISA))
	}
	return ooo.New(ooo.Config{
		Pkg: "gem5", Name: "GeFIN-" + string(cfg.ISA), ISA: string(cfg.ISA),
		FetchWidth: cfg.FetchWidth, RenameWidth: cfg.RenameWidth,
		IssueWidth: cfg.IssueWidth, CommitWidth: cfg.CommitWidth,
		IntPhysRegs: cfg.IntPhysRegs, FPPhysRegs: cfg.FPPhysRegs,
		IQEntries: cfg.IQEntries, LoadEntries: cfg.LoadEntries, StoreEntries: cfg.StoreEntries,
		ROBEntries: cfg.ROBEntries, RASEntries: cfg.RASEntries,
		IntALUs: cfg.IntALUs, FPALUs: cfg.FPALUs, MemPorts: cfg.MemPorts,
		L1I: cfg.L1I, L1D: cfg.L1D, L2: cfg.L2, MemLatency: cfg.MemLatency,
		TLBEntries: cfg.TLBEntries, TLBWays: cfg.TLBWays, TLBMissLat: cfg.TLBMissLat,
		LocalEntries: cfg.LocalEntries, LocalHistBits: cfg.LocalHistBits, GlobalBits: cfg.GlobalBits,
		// Gem5 keeps one direct-mapped BTB for every branch kind.
		BTBDir:          branch.BTBConfig{Name: "btb", Entries: cfg.BTBEntries, Ways: 1},
		ModelDataArrays: true,
	}, traits, img)
}

// ISA selects the instruction set of the simulated machine.
type ISA string

const (
	// ISAX86 is the x86-flavoured instruction set.
	ISAX86 ISA = "x86"
	// ISAARM is the ARM-flavoured instruction set.
	ISAARM ISA = "arm"
)

// Config parameterizes the simulated core (Table II, Gem5 columns).
type Config struct {
	ISA ISA

	FetchWidth  int
	RenameWidth int
	IssueWidth  int
	CommitWidth int

	IntPhysRegs  int
	FPPhysRegs   int
	IQEntries    int
	LoadEntries  int
	StoreEntries int
	ROBEntries   int
	RASEntries   int

	IntALUs  int
	FPALUs   int
	MemPorts int

	L1I, L1D, L2 cache.Config
	MemLatency   int

	TLBEntries int
	TLBWays    int
	TLBMissLat int

	LocalEntries  int
	LocalHistBits int
	GlobalBits    int
	BTBEntries    int
}

// DefaultConfig returns the Table II Gem5 configuration for the ISA:
// identical memory hierarchy for both, different functional units (x86:
// 6 int ALUs and 4 FP units plus SIMD; ARM: 2 int ALUs and 2 FP&SIMD).
func DefaultConfig(isa ISA) Config {
	cfg := Config{
		ISA:        isa,
		FetchWidth: 4, RenameWidth: 4, IssueWidth: 4, CommitWidth: 4,
		IntPhysRegs: 256, FPPhysRegs: 128,
		IQEntries: 32, LoadEntries: 16, StoreEntries: 16,
		ROBEntries: 40, RASEntries: 16,
		L1I:        cache.Config{Name: "l1i", Size: 32 << 10, LineSize: 64, Ways: 4, Latency: 2},
		L1D:        cache.Config{Name: "l1d", Size: 32 << 10, LineSize: 64, Ways: 4, Latency: 2},
		L2:         cache.Config{Name: "l2", Size: 1 << 20, LineSize: 64, Ways: 16, Latency: 12},
		MemLatency: 100,
		TLBEntries: 64, TLBWays: 4, TLBMissLat: 20,
		LocalEntries: 1024, LocalHistBits: 10, GlobalBits: 12,
		BTBEntries: 2048,
	}
	if isa == ISAARM {
		cfg.IntALUs, cfg.FPALUs, cfg.MemPorts = 2, 2, 2
	} else {
		cfg.IntALUs, cfg.FPALUs, cfg.MemPorts = 6, 4, 4
	}
	return cfg
}
