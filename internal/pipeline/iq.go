package pipeline

import (
	"math/bits"

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

// PackedUop is the issue queue's view of a renamed micro-op: exactly
// the fields the payload packs.
type PackedUop struct {
	Op              isa.Op
	Dst, Src1, Src2 PhysReg
	Cond            isa.Cond
	Size            uint8
	SignExt         bool
	UsesImm         bool
	Imm             int64
}

// NewUop builds the issue queue's view of a renamed micro-op, each field
// cut to its packed width, so that it equals UnpackUop of its own Words:
// rename builds it once, and the queue both keeps it as its copy of the
// slot and packs it into the faultable array. The registers are the ones
// rename hands out — PhysNone or a register of a file, whose index
// NewRegFile keeps below 0x7ff — and pack as they are.
func NewUop(u isa.Uop, dst, src1, src2 PhysReg) PackedUop {
	var p PackedUop
	p.set(&u, dst, src1, src2)
	return p
}

// set makes p NewUop(*u, dst, src1, src2), field by field: Alloc builds
// the slot's copy in place (building it on the stack and copying it in
// stalled the store-to-load forwarding of every rename).
func (p *PackedUop) set(u *isa.Uop, dst, src1, src2 PhysReg) {
	p.Op, p.Dst, p.Src1, p.Src2 = u.Op, dst, src1, src2
	p.Cond, p.Size, p.SignExt, p.UsesImm = u.Cond&0xf, u.Size&0xf, u.SignExt, u.UsesImm
	p.Imm = u.Imm
}

// Words packs the micro-op into the two payload words.
func (p PackedUop) Words() (w0, w1 uint64) {
	return pack(p.Op, p.Dst, p.Src1, p.Src2, p.Cond, p.Size, p.SignExt, p.UsesImm, p.Imm)
}

// pack is Words of the micro-op with the given fields. Alloc packs from
// the renamed micro-op, not from the copy it has just written: reading
// those fresh stores back stalls their forwarding.
func pack(op isa.Op, dst, src1, src2 PhysReg, cond isa.Cond, size uint8, signExt, usesImm bool, imm int64) (w0, w1 uint64) {
	w0 = uint64(imm)
	w1 = uint64(op) |
		packReg(dst)<<8 |
		packReg(src1)<<20 |
		packReg(src2)<<32 |
		uint64(cond&0xf)<<44 |
		uint64(size&0xf)<<48
	if signExt {
		w1 |= 1 << 52
	}
	if usesImm {
		w1 |= 1 << 53
	}
	return w0, w1
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

// IQ is the issue queue. Every read of a slot is a read of the faultable
// array and is counted as one, but the bits are fetched only when an
// armed fault or a recording profile could see the read: while the array
// is Quiet, a read returns the slot's own copy of what Alloc wrote, which
// is then exactly what the array holds.
type IQ struct {
	arr *bitarray.Array
	// uops is each occupied slot's micro-op as Alloc wrote it; fetched
	// is the last one Read unpacked from the array's bits.
	uops    []PackedUop
	fetched PackedUop
	robIdx  []int
	// used has bit i set while slot i holds a micro-op; Alloc takes the
	// lowest clear bit, which decides the entry an iq fault hits.
	used []uint64
	// The occupied slots form a list, oldest first, linked by next and
	// prev from head to tail (-1 ends it). Micro-ops enter in program
	// order (rename allocates the ROB entry and the slot together), so
	// allocation order is ROB sequence order and age-ordered selection
	// needs no sort.
	next, prev []int
	head, tail int
	n          int
}

// NewIQ builds an issue queue of the given size.
func NewIQ(name string, size int) *IQ {
	if size <= 0 {
		panic("pipeline: IQ size must be positive")
	}
	q := &IQ{
		arr:    bitarray.New(name, size, 128),
		uops:   make([]PackedUop, size),
		robIdx: make([]int, size),
		used:   make([]uint64, (size+63)/64),
		next:   make([]int, size),
		prev:   make([]int, size),
		head:   -1,
		tail:   -1,
	}
	q.arr.SetValidFunc(q.Occupied)
	return q
}

// NextReady walks the age list from slot i, i included, to the first
// slot whose copy's sources are both produced in the given register
// files (an absent source counts as produced), and returns it (-1 when
// the list ends first) with the number of slots it passed. It probes the
// copies, not the array: on a quiet array that is what a read returns
// (see Read), and the caller counts the reads.
func (q *IQ) NextReady(i int, intRF, fpRF *RegFile) (slot, passed int) {
	ir, fr := intRF.ready, fpRF.ready
	produced := func(p PhysReg) bool {
		switch {
		case !p.Valid():
			return true
		case p.FP:
			return fr[p.Idx]
		}
		return ir[p.Idx]
	}
	for ; i >= 0; i = q.next[i] {
		if u := &q.uops[i]; produced(u.Src1) && produced(u.Src2) {
			return i, passed
		}
		passed++
	}
	return -1, passed
}

// Array returns the injectable payload storage.
func (q *IQ) Array() *bitarray.Array { return q.arr }

// Len returns the number of waiting micro-ops.
func (q *IQ) Len() int { return q.n }

// Full reports whether the queue has no space.
func (q *IQ) Full() bool { return q.n == len(q.uops) }

// Occupied reports whether slot i holds a waiting micro-op.
func (q *IQ) Occupied(i int) bool { return q.used[i>>6]&(1<<(i&63)) != 0 }

// Alloc inserts the renamed micro-op NewUop(*u, dst, src1, src2), tied
// to the given ROB index, into the lowest free slot, younger than every
// micro-op already waiting, and reports whether space was available.
func (q *IQ) Alloc(u *isa.Uop, dst, src1, src2 PhysReg, robIdx int) bool {
	if q.Full() {
		return false
	}
	i := 0
	for w, word := range q.used {
		if word != ^uint64(0) {
			i = w<<6 | bits.TrailingZeros64(^word)
			break
		}
	}
	q.used[i>>6] |= 1 << (i & 63)
	q.robIdx[i] = robIdx
	p := &q.uops[i]
	p.set(u, dst, src1, src2)
	w0, w1 := pack(u.Op, dst, src1, src2, u.Cond, u.Size, u.SignExt, u.UsesImm, u.Imm)
	q.arr.WriteWordPair(i, w0, w1)
	q.link(i)
	return true
}

// link appends slot i to the age list as its youngest entry.
func (q *IQ) link(i int) {
	q.prev[i], q.next[i] = q.tail, -1
	if q.tail >= 0 {
		q.next[q.tail] = i
	} else {
		q.head = i
	}
	q.tail = i
	q.n++
}

// Read returns slot i's micro-op through the faultable array: two word
// reads, served from the slot's copy while the array is quiet. The
// result is valid until the next Read.
func (q *IQ) Read(i int) *PackedUop {
	if q.arr.Quiet() {
		q.arr.CountReads(2)
		return &q.uops[i]
	}
	q.fetched = UnpackUop(q.arr.ReadWordPair(i))
	return &q.fetched
}

// Copy returns slot i's own copy without an access; with CountReads it
// is Read on a quiet array.
func (q *IQ) Copy(i int) *PackedUop { return &q.uops[i] }

// CountReads accounts n word reads served from the copies while the
// array is quiet.
func (q *IQ) CountReads(n int) { q.arr.CountReads(n) }

// Select is the selection scan. It reads every occupied slot through
// the faultable array, in slot order — the hardware's wakeup scan; a
// fault in a waiting entry is consumed here — but unpacks nothing; on a
// quiet array the reads are only counted. It returns the oldest waiting
// slot, or -1 when none waits, and Younger walks on from there.
func (q *IQ) Select() int {
	if q.arr.Quiet() {
		q.arr.CountReads(2 * q.n)
	} else {
		for w, word := range q.used {
			for ; word != 0; word &= word - 1 {
				q.arr.ReadWordPair(w<<6 | bits.TrailingZeros64(word))
			}
		}
	}
	return q.head
}

// Younger returns the waiting slot next younger than slot i, or -1.
// Releasing i leaves this link in place, so the issue loop may release
// the slot it stands on and step on from it; nothing may be allocated
// during the walk.
func (q *IQ) Younger(i int) int { return q.next[i] }

// ROBIdx returns the ROB index slot i is tied to.
func (q *IQ) ROBIdx(i int) int { return q.robIdx[i] }

// Release frees slot i after issue.
func (q *IQ) Release(i int) {
	if !q.Occupied(i) {
		return
	}
	q.used[i>>6] &^= 1 << (i & 63)
	p, n := q.prev[i], q.next[i]
	if p >= 0 {
		q.next[p] = n
	} else {
		q.head = n
	}
	if n >= 0 {
		q.prev[n] = p
	} else {
		q.tail = p
	}
	q.n--
}

// FlushAll empties the queue (commit-point recovery).
func (q *IQ) FlushAll() {
	for w, word := range q.used {
		for ; word != 0; word &= word - 1 {
			q.arr.InvalidateObserve(w<<6 | bits.TrailingZeros64(word))
		}
		q.used[w] = 0
	}
	q.head, q.tail, q.n = -1, -1, 0
}
