// Package core is the paper's primary contribution: the differential
// microarchitecture-level fault injection framework. It defines the
// dispatcher interface the two simulators implement, the fault mask
// generator wiring, the injection campaign controller with its early-stop
// optimizations and worker pool, and the parser that classifies every
// injection run into the reliability classes of §III.A (Masked, SDC,
// DUE, Timeout, Crash, Assert).
package core

import (
	"fmt"

	"repro/internal/bitarray"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// RunStatus is the raw result of a single simulation run, before the
// Parser maps it (together with the golden output) to a reliability
// class.
type RunStatus uint8

const (
	// RunCompleted means the program exited via the exit syscall.
	RunCompleted RunStatus = iota
	// RunProcessCrash means a fatal exception killed the program.
	RunProcessCrash
	// RunSystemCrash means the simulated kernel panicked.
	RunSystemCrash
	// RunAssert means a simulator-internal assertion fired.
	RunAssert
	// RunSimCrash means the simulator itself crashed (a recovered Go
	// panic).
	RunSimCrash
	// RunCycleLimit means the run exceeded its cycle budget (timeout).
	RunCycleLimit
	// RunEarlyMasked means the run was stopped by an early-stop
	// optimization with the fault provably masked (§III.B: fault in an
	// invalid entry, or overwritten before ever being read).
	RunEarlyMasked
	// RunPruned means the run was never simulated: the golden-run
	// liveness profile proved the fault dead (overwritten, evicted or
	// never accessed before any read) at plan time, so the outcome is
	// Masked with certainty — the §III.B proof moved before simulation.
	RunPruned
	// RunStopped means the run was never simulated because its cell's
	// sequential-confidence stopping rule decided before the run's turn:
	// every outcome-class proportion reached the target margin, so the
	// remaining masks were cancelled deterministically. Unlike RunPruned
	// the outcome is unknown — stopped rows are provenance, not verdicts,
	// and are excluded from class proportions.
	RunStopped
)

var runStatusNames = [...]string{
	RunCompleted: "completed", RunProcessCrash: "process-crash",
	RunSystemCrash: "system-crash", RunAssert: "assert",
	RunSimCrash: "simulator-crash", RunCycleLimit: "cycle-limit",
	RunEarlyMasked: "early-masked", RunPruned: "pruned",
	RunStopped: "stopped-early",
}

// String returns the log name of the status.
func (s RunStatus) String() string {
	if int(s) < len(runStatusNames) {
		return runStatusNames[s]
	}
	return fmt.Sprintf("RunStatus(%d)", uint8(s))
}

// RunResult is everything a single simulation run reports to the
// injection campaign controller.
type RunResult struct {
	Status   RunStatus
	ExitCode uint64
	// Output is the simulated output file, compared against the golden
	// run for the Masked/SDC decision.
	Output []byte
	// Cycles and Committed report progress; the Parser uses them to
	// separate deadlocks from livelocks on timeouts.
	Committed uint64
	Cycles    uint64
	// Events are the recoverable exceptions recorded by the kernel
	// (the DUE indications).
	Events []kernel.Event
	// FatalExc identifies the exception behind a process/system crash.
	FatalExc isa.Exception
	// AssertMsg carries the message of a fired assertion or recovered
	// simulator panic.
	AssertMsg string
	// CommitStalled is set on cycle-limit runs that made no commit
	// progress over the deadlock window (deadlock rather than
	// livelock).
	CommitStalled bool
}

// AssertError is the panic payload of a simulator-internal assertion
// (the MARSS-style dense checks of the paper's Remark 8). Simulator Run
// methods recover it and report RunAssert.
type AssertError struct {
	Msg string
}

// Error implements error.
func (e AssertError) Error() string { return "assert: " + e.Msg }

// Assert panics with an AssertError when cond is false.
func Assert(cond bool, msg string) {
	if !cond {
		panic(AssertError{Msg: msg})
	}
}

// Simulator is the injector-dispatcher interface of Fig. 1: the contract
// between the injection campaign controller and a microarchitectural
// simulator. One Simulator instance is one simulated machine booted with
// one workload image; campaigns build a fresh instance per injection run.
type Simulator interface {
	// Name identifies the tool configuration, e.g. "MaFIN-x86".
	Name() string
	// ISA returns "x86" or "arm".
	ISA() string
	// Structures returns the injectable storage arrays by structure
	// name (e.g. "rf.int", "l1d.data", "lsq.data").
	Structures() map[string]*bitarray.Array
	// WatchArrays tells the simulator which arrays have armed faults so
	// it ticks their fault state machines each cycle and can stop early
	// when the outcome is decided.
	WatchArrays(arrs []*bitarray.Array)
	// SetEarlyStop enables or disables the §III.B early-stop
	// optimizations (enabled by default; the ablation benchmark turns
	// them off).
	SetEarlyStop(on bool)
	// Run simulates until program end, a crash, an assertion, or the
	// cycle limit, and reports the result.
	Run(limitCycles uint64) RunResult
	// Stats returns the runtime statistics counters used by the
	// differential analysis (issued/committed loads, cache hit/miss
	// counters, mispredictions, ...).
	Stats() map[string]uint64
}

// Factory builds a fresh Simulator instance for one run.
type Factory func() Simulator

// CommitProbe observes the committed architectural instruction stream
// of a simulated machine: one call per committed instruction with its
// PC, its architectural commit index (CommittedInstrs-1, continuous
// across checkpoint restores and window seams) and the commit cycle.
// The divergence recorder attaches one per injected run; the commit
// path pays a nil check when none is attached.
type CommitProbe interface {
	Commit(pc, index, cycle uint64)
}

// CommitProbed is the optional capability of simulators that can
// attach a CommitProbe to their commit stage (both detailed cores
// implement it).
type CommitProbed interface {
	SetCommitProbe(p CommitProbe)
}

// Checkpointer is the optional checkpointing capability of a simulator
// (both simulators implement it). The campaign controller uses it the
// way the paper uses simulator checkpoints: the fault-free prefix of the
// run is executed once, captured with everything in flight, and restored
// into every injection run whose faults start beyond the checkpoint. A
// machine restored at cycle c is, cycle for cycle, the boot run from c
// on, so a restored run records exactly what the boot run of the same
// mask records.
type Checkpointer interface {
	// RunTo simulates fault-free up to the start of the target cycle; it
	// reports the cycle reached and whether the program finished first.
	RunTo(target uint64) (reached uint64, finished bool, err error)
	// Checkpoint captures the machine as it stands between two cycles.
	Checkpoint() (any, error)
	// Restore loads a checkpoint captured by a machine of the same
	// configuration, whatever the machine held before; the state is
	// copied, so one checkpoint may seed many machines concurrently.
	Restore(state any) error
}

// StructureGeom describes one injectable structure for mask generation.
type StructureGeom struct {
	Name         string
	Entries      int
	BitsPerEntry int
}

// Geometries lists the injectable structures of a simulator.
func Geometries(s Simulator) []StructureGeom {
	var out []StructureGeom
	for name, arr := range s.Structures() {
		out = append(out, StructureGeom{Name: name, Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry()})
	}
	return out
}
