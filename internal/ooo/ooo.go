// Package ooo is the one out-of-order core behind both injectors: the
// cycle loop, the checkpoint of the machine in flight and the detail
// window are written once here, and a tool — MaFIN's MARSS, GeFIN's
// Gem5 — is a Config (its Table II column: sizes, cache and BTB
// organisation) plus a Traits value (the design differences the paper's
// Remarks name). The
// tool packages internal/marss and internal/gem5 own those values; nothing
// else constructs a Traits, so a trait is a code path of a tool, never an
// option of a campaign.
package ooo

import (
	"repro/internal/branch"
	"repro/internal/cache"
)

// Traits are the design differences between the two simulators that the
// paper's differential analysis attributes its gaps to. Each is a real
// branch in the core, read as a plain bool on the hot path.
type Traits struct {
	// UnifiedLSQ (Remark 1): one load/store queue whose entries hold data
	// for loads and stores alike, so a load's result travels through the
	// queue's data array on its way to the register file. Off: split
	// queues, only the store side holds data.
	UnifiedLSQ bool
	// SpeculativeLoads (Remark 3): a load issues before older store
	// addresses resolve; a resolving store scans for younger loads that
	// read stale data (squashed at commit) and replays the loads sharing
	// its cache line. Off: a load waits for every older store address.
	SpeculativeLoads bool
	// HypervisorSyscalls (Remarks 3, 6): the kernel reads user memory from
	// RAM directly, bypassing the caches. Off: through the L1D arrays,
	// observing and consuming any corruption in them.
	HypervisorSyscalls bool
	// ChoiceByAddress (Remark 6): the tournament predictor's choice table
	// is indexed by branch address. Off: by global history.
	ChoiceByAddress bool
	// DenseAsserts (Remark 8): the core checks ranges, links and
	// capacities as it goes and stops with an assertion, and an illegal
	// opcode reaching commit stops the simulator instead of delivering
	// the architectural fault. Off: none of those conditions is even
	// evaluated, and corruption runs on until it crashes the program or
	// the simulator.
	DenseAsserts bool
}

// Config parameterizes one machine: identity, sizes and the existing
// MARSS model switches. The tool packages translate their own Config into
// it.
type Config struct {
	// Pkg is the tool package's name, the prefix of the machine's error
	// messages ("marss", "gem5"); Name is the simulator's report name and
	// the tag of its checkpoints; ISA ("x86" or "arm") selects the decoder.
	Pkg, Name, ISA string

	// Pipeline widths in micro-ops (instructions for fetch).
	FetchWidth, RenameWidth, IssueWidth, CommitWidth int

	// Structure sizes. LoadEntries is the whole queue under UnifiedLSQ,
	// where StoreEntries is unused.
	IntPhysRegs, FPPhysRegs   int
	IQEntries                 int
	LoadEntries, StoreEntries int
	ROBEntries, RASEntries    int

	// Functional units.
	IntALUs, FPALUs, MemPorts int

	L1I, L1D, L2 cache.Config
	MemLatency   int

	TLBEntries, TLBWays, TLBMissLat int

	LocalEntries, LocalHistBits, GlobalBits int
	// BTBDir serves direct branches and BTBInd indirect ones; a BTBInd of
	// zero entries means one BTB serves both.
	BTBDir, BTBInd branch.BTBConfig

	// The MARSS model switches (marss.Config documents them).
	L1DPrefetch, L1IPrefetch bool
	InOrder                  bool
	ModelDataArrays          bool
}
