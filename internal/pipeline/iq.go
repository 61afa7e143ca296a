package pipeline

import (
	"repro/internal/bitarray"
	"repro/internal/isa"
)

// The issue queue stores each waiting micro-op as a packed 128-bit
// payload in a faultable array, so injected faults corrupt the very bits
// that encode the operation, its operands and its immediate — the way a
// real scheduler entry would be corrupted.
//
// Packed layout (word 1):
//
//	bits  0..7   opcode
//	bits  8..19  dst  (bit 19: FP class, bits 8..18 index; 0xfff = none)
//	bits 20..31  src1
//	bits 32..43  src2
//	bits 44..47  condition code
//	bits 48..51  access size
//	bit  52      sign-extend
//	bit  53      uses-immediate
//
// Word 0 is the 64-bit immediate.

const packedNone = 0xfff

func packReg(p PhysReg) uint64 {
	if !p.Valid() {
		return packedNone
	}
	v := uint64(p.Idx) & 0x7ff
	if p.FP {
		v |= 0x800
	}
	return v
}

func unpackReg(v uint64) PhysReg {
	v &= 0xfff
	if v == packedNone {
		return PhysNone
	}
	return PhysReg{FP: v&0x800 != 0, Idx: uint16(v & 0x7ff)}
}

// PackUop packs a renamed micro-op into the two payload words.
func PackUop(u isa.Uop, dst, src1, src2 PhysReg) (w0, w1 uint64) {
	w0 = uint64(u.Imm)
	w1 = uint64(u.Op) |
		packReg(dst)<<8 |
		packReg(src1)<<20 |
		packReg(src2)<<32 |
		uint64(u.Cond&0xf)<<44 |
		uint64(u.Size&0xf)<<48
	if u.SignExt {
		w1 |= 1 << 52
	}
	if u.UsesImm {
		w1 |= 1 << 53
	}
	return w0, w1
}

// PackedUop is the unpacked view of an issue queue payload.
type PackedUop struct {
	Op              isa.Op
	Dst, Src1, Src2 PhysReg
	Cond            isa.Cond
	Size            uint8
	SignExt         bool
	UsesImm         bool
	Imm             int64
}

// UnpackUop decodes the payload words. A corrupted payload can decode to
// an out-of-range opcode or condition; the caller (the simulator core)
// decides whether that trips an assertion (MaFIN) or propagates
// (GeFIN).
func UnpackUop(w0, w1 uint64) PackedUop {
	return PackedUop{
		Op:      isa.Op(w1 & 0xff),
		Dst:     unpackReg(w1 >> 8),
		Src1:    unpackReg(w1 >> 20),
		Src2:    unpackReg(w1 >> 32),
		Cond:    isa.Cond(w1 >> 44 & 0xf),
		Size:    uint8(w1 >> 48 & 0xf),
		SignExt: w1>>52&1 != 0,
		UsesImm: w1>>53&1 != 0,
		Imm:     int64(w0),
	}
}

// IQ is the issue queue.
type IQ struct {
	arr      *bitarray.Array
	occupied []bool
	robIdx   []int
	// age lists the occupied slots oldest first. Micro-ops enter in
	// program order (rename allocates the ROB entry and the slot
	// together), so allocation order is ROB sequence order and age-
	// ordered selection needs no sort.
	age []int
}

// NewIQ builds an issue queue of the given size.
func NewIQ(name string, size int) *IQ {
	if size <= 0 {
		panic("pipeline: IQ size must be positive")
	}
	q := &IQ{
		arr:      bitarray.New(name, size, 128),
		occupied: make([]bool, size),
		robIdx:   make([]int, size),
		age:      make([]int, 0, size),
	}
	q.arr.SetValidFunc(func(e int) bool { return q.occupied[e] })
	return q
}

// Array returns the injectable payload storage.
func (q *IQ) Array() *bitarray.Array { return q.arr }

// Len returns the number of waiting micro-ops.
func (q *IQ) Len() int { return len(q.age) }

// Full reports whether the queue has no space.
func (q *IQ) Full() bool { return len(q.age) == len(q.occupied) }

// Alloc inserts a packed micro-op tied to the given ROB index, younger
// than every micro-op already waiting, and reports whether space was
// available.
func (q *IQ) Alloc(w0, w1 uint64, robIdx int) bool {
	for i := range q.occupied {
		if !q.occupied[i] {
			q.occupied[i] = true
			q.robIdx[i] = robIdx
			q.arr.WriteWord(i, 0, w0)
			q.arr.WriteWord(i, 1, w1)
			q.age = append(q.age, i)
			return true
		}
	}
	return false
}

// Payload is one slot's two payload words as the faultable array served
// them. The issue stage unpacks the fields it needs when it needs them:
// most waiting micro-ops are looked at every cycle and issued once.
type Payload struct{ W0, W1 uint64 }

// Op unpacks the opcode alone.
func (p Payload) Op() isa.Op { return isa.Op(p.W1 & 0xff) }

// Sources unpacks the two source registers alone — all wakeup needs.
func (p Payload) Sources() (src1, src2 PhysReg) {
	return unpackReg(p.W1 >> 20), unpackReg(p.W1 >> 32)
}

// Unpack decodes the whole payload.
func (p Payload) Unpack() PackedUop { return UnpackUop(p.W0, p.W1) }

// Payload reads slot i through the faultable array: two word reads.
func (q *IQ) Payload(i int) Payload {
	w0, w1 := q.arr.ReadWordPair(i)
	return Payload{w0, w1}
}

// IssueCand is one waiting micro-op under age-ordered issue selection.
type IssueCand struct {
	Slot   int
	ROBIdx int
}

// Candidates collects the waiting micro-ops into buf[:0], oldest first,
// and returns the filled buffer for the caller to keep for the next
// cycle (the caller releases slots while it walks the result, so it
// cannot walk the queue's own list). Selection reads every occupied
// slot through the faultable array, in slot order — the hardware's
// wakeup scan; a fault in a waiting entry is consumed here — but
// unpacks nothing.
func (q *IQ) Candidates(buf []IssueCand) []IssueCand {
	for i, occ := range q.occupied {
		if occ {
			q.arr.ReadWordPair(i)
		}
	}
	buf = buf[:0]
	for _, i := range q.age {
		buf = append(buf, IssueCand{i, q.robIdx[i]})
	}
	return buf
}

// Occupied reports whether slot i holds a waiting micro-op.
func (q *IQ) Occupied(i int) bool { return q.occupied[i] }

// Release frees slot i after issue.
func (q *IQ) Release(i int) {
	if !q.occupied[i] {
		return
	}
	q.occupied[i] = false
	for k, s := range q.age {
		if s == i {
			q.age = append(q.age[:k], q.age[k+1:]...)
			return
		}
	}
}

// FlushAll empties the queue (commit-point recovery).
func (q *IQ) FlushAll() {
	for i := range q.occupied {
		if q.occupied[i] {
			q.arr.InvalidateObserve(i)
			q.occupied[i] = false
		}
	}
	q.age = q.age[:0]
}
