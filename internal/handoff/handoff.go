// Package handoff carries architectural machine state between the
// execution tiers of the detail-window scheduler: the functional
// interpreter (internal/interp) and the two cycle-accurate cores
// (internal/marss, internal/gem5). A State is exactly the
// architecturally visible machine — program counter, committed register
// values, RAM, and kernel state — with no microarchitectural content,
// so any two tiers that agree on a State agree on every future
// architectural event of the program.
package handoff

import (
	"bytes"
	"fmt"

	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// State is an architectural machine snapshot at an instruction boundary.
type State struct {
	// PC is the next instruction to execute.
	PC uint64
	// IntRegs are the committed integer register values.
	IntRegs [isa.NumIntRegs]uint64
	// FPRegs are the committed FP register values as raw IEEE-754 bits.
	FPRegs [isa.NumFPRegs]uint64
	// Mem is the RAM image. On the cycle-accurate cores the capture path
	// is responsible for making RAM architecturally authoritative first
	// (write-back caches flush their dirty lines).
	Mem *mem.PagedSnapshot
	// Kern is a deep copy of the kernel state: accumulated output, exit
	// state, and the recoverable-exception event log.
	Kern kernel.Kernel
	// Cycle is the capture timestamp in the capturing tier's own time
	// base (cycles for the cores, steps for the interpreter). It is
	// bookkeeping, not architectural state; Equal ignores it.
	Cycle uint64
	// Committed is the number of committed macro-instructions, identical
	// across tiers at the same instruction boundary.
	Committed uint64
}

// SizeBytes estimates the heap the state retains: RAM pages not shared
// with the snapshot it resumed from, and the kernel's output so far.
func (s *State) SizeBytes() int {
	return s.Mem.SizeBytes() + len(s.Kern.Output)
}

// numPages is the page count of the simulated RAM.
const numPages = int(mem.Size / mem.PageSize)

var zeroPage [mem.PageSize]byte

// pageEqual compares two snapshot pages where nil means all-zero.
func pageEqual(a, b []byte) bool {
	if a == nil {
		a = zeroPage[:]
	}
	if b == nil {
		b = zeroPage[:]
	}
	return bytes.Equal(a, b)
}

// Equal reports whether two states are architecturally identical,
// returning a diff-describing error on the first mismatch. Capture
// timestamps (State.Cycle) and event cycle stamps are not compared:
// the tiers count time in different units, and the architectural
// content of an event is its (PC, exception, info) triple.
func Equal(a, b *State) error {
	if a.PC != b.PC {
		return fmt.Errorf("handoff: PC %#x != %#x", a.PC, b.PC)
	}
	if a.Committed != b.Committed {
		return fmt.Errorf("handoff: committed instructions %d != %d", a.Committed, b.Committed)
	}
	for i := range a.IntRegs {
		if a.IntRegs[i] != b.IntRegs[i] {
			return fmt.Errorf("handoff: int reg %d: %#x != %#x", i, a.IntRegs[i], b.IntRegs[i])
		}
	}
	for i := range a.FPRegs {
		if a.FPRegs[i] != b.FPRegs[i] {
			return fmt.Errorf("handoff: fp reg %d: %#x != %#x", i, a.FPRegs[i], b.FPRegs[i])
		}
	}
	for p := 0; p < numPages; p++ {
		if !pageEqual(a.Mem.Page(p), b.Mem.Page(p)) {
			return fmt.Errorf("handoff: memory page %d (addr %#x) differs", p, uint64(p)*mem.PageSize)
		}
	}
	if !bytes.Equal(a.Kern.Output, b.Kern.Output) {
		return fmt.Errorf("handoff: kernel output differs (%d vs %d bytes)", len(a.Kern.Output), len(b.Kern.Output))
	}
	if a.Kern.Exited != b.Kern.Exited || a.Kern.ExitCode != b.Kern.ExitCode {
		return fmt.Errorf("handoff: exit state (%v,%d) != (%v,%d)",
			a.Kern.Exited, a.Kern.ExitCode, b.Kern.Exited, b.Kern.ExitCode)
	}
	if a.Kern.Panicked != b.Kern.Panicked {
		return fmt.Errorf("handoff: panicked %v != %v", a.Kern.Panicked, b.Kern.Panicked)
	}
	if len(a.Kern.Events) != len(b.Kern.Events) {
		return fmt.Errorf("handoff: event count %d != %d", len(a.Kern.Events), len(b.Kern.Events))
	}
	for i := range a.Kern.Events {
		ea, eb := a.Kern.Events[i], b.Kern.Events[i]
		if ea.PC != eb.PC || ea.Exc != eb.Exc || ea.Info != eb.Info {
			return fmt.Errorf("handoff: event %d: {pc %#x exc %v info %#x} != {pc %#x exc %v info %#x}",
				i, ea.PC, ea.Exc, ea.Info, eb.PC, eb.Exc, eb.Info)
		}
	}
	return nil
}
