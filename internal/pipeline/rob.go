package pipeline

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/isa"
)

// ROBEntry is one in-flight micro-op. A ring slot is reused without
// being cleared (see ROB.Alloc): the branch fields are written and read
// only on the branch-carrying micro-op, every other field on every one.
type ROBEntry struct {
	Seq uint64
	PC  uint64
	// NextPC is the fall-through address of the parent macro-instruction.
	NextPC uint64
	Uop    isa.Uop

	// Renamed operands.
	Dst, OldDst, Src1, Src2 PhysReg
	ArchDst                 isa.Reg

	// Execution state.
	Dispatched bool // placed in the issue queue (or LSQ path)
	Executed   bool
	Exc        isa.Exception
	ExcInfo    uint64

	// Branch state (valid on the uop carrying the branch of the
	// macro-instruction).
	IsBranch     bool
	BranchInfo   isa.BranchInfo
	HasPred      bool
	Pred         branch.Prediction
	PredTaken    bool
	PredTarget   uint64
	ActualTaken  bool
	ActualTarget uint64
	Mispredicted bool

	// Memory state.
	LSQIdx int // -1 when not a memory op

	// Violated marks a load caught reading stale data by a later-
	// resolving older store (aggressive load speculation).
	Violated bool

	// Syscall/halt serialization.
	IsSyscall bool
}

// ROB is the reorder buffer: a ring of in-flight micro-ops in program
// order.
type ROB struct {
	entries []ROBEntry
	head    int
	count   int
	seq     uint64
}

// NewROB builds a reorder buffer of the given capacity.
func NewROB(size int) *ROB {
	if size <= 0 {
		panic("pipeline: ROB size must be positive")
	}
	return &ROB{entries: make([]ROBEntry, size)}
}

// Cap returns the capacity.
func (r *ROB) Cap() int { return len(r.entries) }

// Len returns the number of in-flight micro-ops.
func (r *ROB) Len() int { return r.count }

// Full reports whether the buffer has no space.
func (r *ROB) Full() bool { return r.count == len(r.entries) }

// Empty reports whether nothing is in flight.
func (r *ROB) Empty() bool { return r.count == 0 }

// Alloc appends a new entry at the tail and returns its index. It panics
// when full — dispatch must check Full first. Only Seq and LSQIdx (-1)
// are set; the slot keeps what its previous micro-op left in every other
// field, and the caller assigns each field before anything reads it
// (zeroing the whole entry on every allocation was a measurable share
// of the cycle loop).
func (r *ROB) Alloc() int {
	if r.Full() {
		panic("pipeline: ROB overflow")
	}
	idx := r.wrap(r.head + r.count)
	r.count++
	r.seq++
	e := &r.entries[idx]
	e.Seq, e.LSQIdx = r.seq, -1
	return idx
}

// wrap folds a ring position in [0, 2·Cap) into the ring with a compare:
// a capacity that is not a power of two (GeFIN's 40) turns % into a
// divide on every allocate and retire.
func (r *ROB) wrap(i int) int {
	if i >= len(r.entries) {
		i -= len(r.entries)
	}
	return i
}

// At returns the entry at index idx.
func (r *ROB) At(idx int) *ROBEntry { return &r.entries[idx] }

// Head returns the index of the oldest entry; call only when non-empty.
func (r *ROB) Head() int {
	if r.Empty() {
		panic("pipeline: ROB head of empty buffer")
	}
	return r.head
}

// PopHead retires the oldest entry.
func (r *ROB) PopHead() {
	if r.Empty() {
		panic("pipeline: ROB pop of empty buffer")
	}
	r.head = r.wrap(r.head + 1)
	r.count--
}

// Walk visits the in-flight entries in program order (oldest first),
// stopping early when fn returns false.
func (r *ROB) Walk(fn func(idx int, e *ROBEntry) bool) {
	for i := 0; i < r.count; i++ {
		idx := r.wrap(r.head + i)
		if !fn(idx, &r.entries[idx]) {
			return
		}
	}
}

// FlushAll discards every in-flight entry (commit-point recovery).
func (r *ROB) FlushAll() {
	r.head = 0
	r.count = 0
}

// String summarizes occupancy for debug logs.
func (r *ROB) String() string {
	return fmt.Sprintf("ROB[%d/%d]", r.count, len(r.entries))
}
