// Package marss implements the MARSS-like out-of-order x86 simulator
// behind the MaFIN injector. Its distinguishing microarchitectural
// traits, each one a difference the paper's differential analysis relies
// on, are:
//
//   - a unified 32-entry load/store queue whose entries hold data for
//     loads and stores alike (Remark 1);
//   - aggressive load issue: loads issue as soon as their address is
//     ready, before older store addresses resolve, with replay on a
//     detected ordering violation (Remark 3);
//   - dual-copy cache data arrays: MARSS keeps program data in its main
//     memory model, so stores propagate there immediately and evictions
//     discard the array copy (Remark 3's extra masking);
//   - a QEMU-hypervisor escape: system calls act on main memory
//     directly, bypassing the data cache (Remarks 3 and 6);
//   - next-line prefetchers on L1D and L1I (the "New" components of
//     Table IV);
//   - a tournament predictor whose final decision is bound to the
//     branch address, and split direct/indirect BTBs (Remark 6);
//   - a dense population of internal assertions, so corrupted
//     instruction bytes stop the simulator with an assert rather than
//     an architectural crash (Remark 8).
package marss

import (
	"repro/internal/asm"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/ooo"
)

// traits is MARSS's side of every design difference the differential
// analysis names; the cycle loop they select branches of is internal/ooo.
var traits = ooo.Traits{
	UnifiedLSQ:         true,
	SpeculativeLoads:   true,
	HypervisorSyscalls: true,
	ChoiceByAddress:    true,
	DenseAsserts:       true,
}

// Traits returns a copy of the MARSS trait table, for reports and tests.
func Traits() ooo.Traits { return traits }

// New boots a simulated machine with the image. The image must be built
// for the x86-flavoured ISA.
func New(cfg Config, img *asm.Image) *ooo.CPU {
	if img.ISA != "x86" {
		panic("marss: MARSS models the x86-flavoured ISA only")
	}
	return ooo.New(ooo.Config{
		Pkg: "marss", Name: "MaFIN-x86", ISA: "x86",
		FetchWidth: cfg.FetchWidth, RenameWidth: cfg.RenameWidth,
		IssueWidth: cfg.IssueWidth, CommitWidth: cfg.CommitWidth,
		IntPhysRegs: cfg.IntPhysRegs, FPPhysRegs: cfg.FPPhysRegs,
		IQEntries: cfg.IQEntries, LoadEntries: cfg.LSQEntries,
		ROBEntries: cfg.ROBEntries, RASEntries: cfg.RASEntries,
		IntALUs: cfg.IntALUs, FPALUs: cfg.FPALUs, MemPorts: cfg.MemPorts,
		L1I: cfg.L1I, L1D: cfg.L1D, L2: cfg.L2, MemLatency: cfg.MemLatency,
		TLBEntries: cfg.TLBEntries, TLBWays: cfg.TLBWays, TLBMissLat: cfg.TLBMissLat,
		LocalEntries: cfg.LocalEntries, LocalHistBits: cfg.LocalHistBits, GlobalBits: cfg.GlobalBits,
		BTBDir:      branch.BTBConfig{Name: "btb.dir", Entries: cfg.BTBDirEntries, Ways: cfg.BTBDirWays},
		BTBInd:      branch.BTBConfig{Name: "btb.ind", Entries: cfg.BTBIndEntries, Ways: cfg.BTBIndWays},
		L1DPrefetch: cfg.L1DPrefetch, L1IPrefetch: cfg.L1IPrefetch,
		InOrder: cfg.InOrder, ModelDataArrays: cfg.ModelDataArrays,
	}, traits, img)
}

// Config parameterizes the simulated core (Table II, MARSS/x86 column).
type Config struct {
	// Pipeline widths in micro-ops (instructions for fetch).
	FetchWidth  int
	RenameWidth int
	IssueWidth  int
	CommitWidth int

	// Structure sizes.
	IntPhysRegs int
	FPPhysRegs  int
	IQEntries   int
	LSQEntries  int // unified
	ROBEntries  int
	RASEntries  int

	// Functional units.
	IntALUs  int
	FPALUs   int
	MemPorts int

	// Caches.
	L1I, L1D, L2 cache.Config
	MemLatency   int

	// TLBs.
	TLBEntries int
	TLBWays    int
	TLBMissLat int

	// Branch prediction.
	LocalEntries  int
	LocalHistBits int
	GlobalBits    int
	BTBDirEntries int
	BTBDirWays    int
	BTBIndEntries int
	BTBIndWays    int

	// Prefetchers (the MaFIN "New" components). On by default.
	L1DPrefetch bool
	L1IPrefetch bool

	// InOrder selects MARSS's simple Atom-like in-order pipeline model
	// instead of the out-of-order one (the paper notes MARSS models
	// both and focuses on the OoO model; the in-order model enables the
	// OoO-vs-in-order reliability studies it suggests). In-order issue
	// keeps program order in the scheduler: a micro-op issues only when
	// every older micro-op has issued.
	InOrder bool

	// ModelDataArrays keeps the cache data arrays in the model; turning
	// it off reproduces the unmodified MARSS (for the ~40% throughput
	// ablation of §III.C) — loads and stores then bypass the arrays and
	// act on main memory, and cache structures are timing-only.
	ModelDataArrays bool
}

// InOrderConfig returns the Atom-like in-order MARSS configuration: the
// same structure sizes with a narrow, program-ordered scheduler.
func InOrderConfig() Config {
	cfg := DefaultConfig()
	cfg.InOrder = true
	cfg.IssueWidth = 2
	cfg.CommitWidth = 2
	return cfg
}

// DefaultConfig returns the Table II MARSS/x86 configuration.
func DefaultConfig() Config {
	return Config{
		FetchWidth: 4, RenameWidth: 4, IssueWidth: 4, CommitWidth: 4,
		IntPhysRegs: 256, FPPhysRegs: 256,
		IQEntries: 32, LSQEntries: 32, ROBEntries: 64, RASEntries: 16,
		IntALUs: 2, FPALUs: 2, MemPorts: 4,
		L1I:        cache.Config{Name: "l1i", Size: 32 << 10, LineSize: 64, Ways: 4, Latency: 2, DualCopy: true},
		L1D:        cache.Config{Name: "l1d", Size: 32 << 10, LineSize: 64, Ways: 4, Latency: 2, DualCopy: true},
		L2:         cache.Config{Name: "l2", Size: 1 << 20, LineSize: 64, Ways: 16, Latency: 12, DualCopy: true},
		MemLatency: 100,
		TLBEntries: 64, TLBWays: 4, TLBMissLat: 20,
		LocalEntries: 1024, LocalHistBits: 10, GlobalBits: 12,
		BTBDirEntries: 1024, BTBDirWays: 4,
		BTBIndEntries: 512, BTBIndWays: 4,
		L1DPrefetch: true, L1IPrefetch: true,
		ModelDataArrays: true,
	}
}
