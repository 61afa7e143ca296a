// Package pipeline provides the out-of-order building blocks shared by
// the two simulator cores: physical register files with register
// renaming, the reorder buffer, a packed (and therefore faultable) issue
// queue, and the load/store queue in the two organizations the paper
// contrasts — MARSS's unified data-holding queue and Gem5's split queues
// where only the store side holds data (Remark 1).
package pipeline

import (
	"fmt"
	"math/bits"

	"repro/internal/bitarray"
)

// PhysReg names a physical register: a class (integer or FP) and an
// index within that class's file.
type PhysReg struct {
	FP  bool
	Idx uint16
}

// PhysNone marks an absent operand.
var PhysNone = PhysReg{Idx: 0xffff}

// Valid reports whether the register names a real physical register.
func (p PhysReg) Valid() bool { return p.Idx != 0xffff }

// String renders the physical register for logs.
func (p PhysReg) String() string {
	if !p.Valid() {
		return "-"
	}
	if p.FP {
		return fmt.Sprintf("pf%d", p.Idx)
	}
	return fmt.Sprintf("p%d", p.Idx)
}

// RegFile is one class of physical register file with its rename table
// and free list. The value storage is a faultable array — the structure
// of the paper's Fig. 2.
type RegFile struct {
	fp    bool
	arr   *bitarray.Array
	ready []bool
	// live has bit p set while register p is allocated (mapped or in
	// flight); dead registers are provably masked injection targets
	// (§III.B optimization (i)).
	live []uint64
	// The free list, in the order Rename hands registers out: first the
	// stack free (last in, first out: the registers commits recycled),
	// then the registers of spare in ascending order. Flush empties the
	// stack and makes spare every dead register, so a flush costs a few
	// words per file, not a pass over every register.
	free      []uint16
	spare     []uint64
	rat       []uint16 // speculative arch → phys
	commitRAT []uint16 // architectural arch → phys
	// dirty is set by every change Flush would undo (Rename, Commit,
	// SetState) and cleared by Flush: rebuilding a file nothing was
	// renamed into since its last flush gives back what it holds.
	dirty bool

	reads  uint64
	writes uint64
}

// NewRegFile builds a physical register file of physRegs registers
// backing archRegs architectural names. It panics unless every
// architectural register can be mapped with at least one register to
// spare for renaming, and unless every register index fits the issue
// queue payload's 11-bit field without meeting its none pattern.
func NewRegFile(name string, archRegs, physRegs int, fp bool) *RegFile {
	if physRegs <= archRegs {
		panic(fmt.Sprintf("pipeline: %s: %d physical registers cannot back %d architectural",
			name, physRegs, archRegs))
	}
	if physRegs > 0x7ff {
		panic(fmt.Sprintf("pipeline: %s: %d physical registers, the issue queue names at most %d",
			name, physRegs, 0x7ff))
	}
	words := (physRegs + 63) / 64
	r := &RegFile{
		fp:        fp,
		arr:       bitarray.New(name, physRegs, 64),
		ready:     make([]bool, physRegs),
		live:      make([]uint64, words),
		spare:     make([]uint64, words),
		rat:       make([]uint16, archRegs),
		commitRAT: make([]uint16, archRegs),
	}
	// Identity-map the architectural registers; the rest are free.
	for i := 0; i < archRegs; i++ {
		r.rat[i] = uint16(i)
		r.commitRAT[i] = uint16(i)
		r.ready[i] = true
	}
	r.spareDead()
	r.arr.SetValidFunc(func(e int) bool { return r.isLive(e) })
	return r
}

func (r *RegFile) isLive(p int) bool { return r.live[p>>6]&(1<<(p&63)) != 0 }

// spareDead makes the committed mapping the live set and every other
// register spare, with an empty stack: the state Flush rewinds to.
func (r *RegFile) spareDead() {
	clear(r.live)
	for _, p := range r.commitRAT {
		r.live[p>>6] |= 1 << (p & 63)
	}
	n := r.arr.Entries()
	for w := range r.spare {
		r.spare[w] = ^r.live[w]
		if rest := n - w<<6; rest < 64 {
			r.spare[w] &= 1<<rest - 1
		}
	}
	r.free = r.free[:0]
}

// Array returns the injectable value storage.
func (r *RegFile) Array() *bitarray.Array { return r.arr }

// FreeCount returns the number of allocatable physical registers.
func (r *RegFile) FreeCount() int {
	n := len(r.free)
	for _, w := range r.spare {
		n += bits.OnesCount64(w)
	}
	return n
}

// Lookup returns the current speculative mapping of an architectural
// register index.
func (r *RegFile) Lookup(arch int) PhysReg {
	return PhysReg{FP: r.fp, Idx: r.rat[arch]}
}

// Rename allocates a fresh physical register for a write to arch,
// returning the new mapping and the previous one (to free at commit).
// ok is false when the free list is empty (rename must stall).
func (r *RegFile) Rename(arch int) (dst, old PhysReg, ok bool) {
	var n uint16
	if k := len(r.free); k > 0 {
		n = r.free[k-1]
		r.free = r.free[:k-1]
	} else {
		w := 0
		for w < len(r.spare) && r.spare[w] == 0 {
			w++
		}
		if w == len(r.spare) {
			return PhysNone, PhysNone, false
		}
		n = uint16(w<<6 | bits.TrailingZeros64(r.spare[w]))
		r.spare[w] &= r.spare[w] - 1
	}
	old = PhysReg{FP: r.fp, Idx: r.rat[arch]}
	r.rat[arch] = n
	r.ready[n] = false
	r.live[n>>6] |= 1 << (n & 63)
	r.dirty = true
	return PhysReg{FP: r.fp, Idx: n}, old, true
}

// Read reads a physical register through the faultable array.
func (r *RegFile) Read(p PhysReg) uint64 {
	r.reads++
	return r.arr.ReadUint64(int(p.Idx))
}

// Write writes a physical register and marks it ready.
func (r *RegFile) Write(p PhysReg, v uint64) {
	r.writes++
	r.arr.WriteUint64(int(p.Idx), v)
	r.ready[p.Idx] = true
}

// Ready reports whether the physical register has been produced.
func (r *RegFile) Ready(p PhysReg) bool { return r.ready[p.Idx] }

// Commit makes the mapping of arch → dst architectural and recycles the
// physical register it displaced.
func (r *RegFile) Commit(arch int, dst, old PhysReg) {
	r.commitRAT[arch] = dst.Idx
	r.dirty = true
	if old.Valid() {
		r.free = append(r.free, old.Idx)
		r.live[old.Idx>>6] &^= 1 << (old.Idx & 63)
		r.arr.InvalidateObserve(int(old.Idx))
	}
}

// ReadArch reads the architectural (committed) value of an architectural
// register; the kernel uses it at syscalls.
func (r *RegFile) ReadArch(arch int) uint64 {
	return r.Read(PhysReg{FP: r.fp, Idx: r.commitRAT[arch]})
}

// WriteArch writes the architectural value of an architectural register;
// the kernel uses it for syscall results. The write goes to the
// committed physical register, which the speculative RAT also maps after
// a flush.
func (r *RegFile) WriteArch(arch int, v uint64) {
	r.Write(PhysReg{FP: r.fp, Idx: r.commitRAT[arch]}, v)
}

// Flush rewinds the speculative state to the committed state: the RAT is
// restored and the free list becomes the registers not referenced by the
// committed mapping, handed out in ascending order. A file built by
// NewRegFile already is its committed state.
func (r *RegFile) Flush() {
	if !r.dirty {
		return
	}
	r.dirty = false
	copy(r.rat, r.commitRAT)
	for _, p := range r.commitRAT {
		r.ready[p] = true
	}
	r.spareDead()
}

// Reads returns the number of physical register reads.
func (r *RegFile) Reads() uint64 { return r.reads }

// Writes returns the number of physical register writes.
func (r *RegFile) Writes() uint64 { return r.writes }
