package pipeline

import (
	"testing"

	"repro/internal/isa"
)

// TestIQCandidatesOldestFirst drives an issue queue and a ROB the way
// rename, issue, commit and flush do — entries enter in program order,
// leave in any order, first-free slot reuse scrambles slot order — and
// requires, every step: candidates ordered by the ROB sequence number of
// the micro-op each slot is tied to, each occupied slot read through the
// faultable array exactly once (two words) and no free slot read, and
// the caller's buffer reused.
func TestIQCandidatesOldestFirst(t *testing.T) {
	rob := NewROB(16)
	q := NewIQ("iq", 6)
	buf := make([]IssueCand, 0, 6)
	rng := uint32(1)
	next := func(n int) int {
		rng = rng*1664525 + 1013904223
		return int(rng>>16) % n
	}
	check := func() {
		t.Helper()
		reads := q.Array().Reads()
		cands := q.Candidates(buf)
		if got := q.Array().Reads() - reads; got != uint64(2*q.Len()) {
			t.Fatalf("selection made %d word reads for %d waiting micro-ops", got, q.Len())
		}
		if len(cands) != q.Len() || (len(cands) > 0 && &cands[0] != &buf[:1][0]) {
			t.Fatalf("%d candidates for %d waiting micro-ops, or buffer not reused", len(cands), q.Len())
		}
		for i, cd := range cands {
			if !q.Occupied(cd.Slot) {
				t.Fatalf("candidate %d names free slot %d", i, cd.Slot)
			}
			if p := q.Payload(cd.Slot).Unpack(); uint64(p.Imm) != rob.At(cd.ROBIdx).Seq {
				t.Fatalf("candidate %d: slot %d holds seq %d, ROB index %d holds %d", i, cd.Slot, p.Imm, cd.ROBIdx, rob.At(cd.ROBIdx).Seq)
			}
			if i > 0 && rob.At(cands[i-1].ROBIdx).Seq >= rob.At(cd.ROBIdx).Seq {
				t.Fatalf("candidates %d and %d out of age order", i-1, i)
			}
		}
	}
	for step := 0; step < 2000; step++ {
		switch op := next(10); {
		case op < 5: // rename: one ROB entry, one slot
			if rob.Full() || q.Full() {
				continue
			}
			idx := rob.Alloc()
			w0, w1 := PackUop(isa.Uop{Op: isa.Add, Imm: int64(rob.At(idx).Seq)}, PhysNone, PhysNone, PhysNone)
			if !q.Alloc(w0, w1, idx) {
				t.Fatal("alloc with space left")
			}
		case op < 8: // issue: any waiting micro-op leaves
			if cands := q.Candidates(buf); len(cands) > 0 {
				q.Release(cands[next(len(cands))].Slot)
			}
		case op < 9: // commit: the head retires once it has issued
			if rob.Empty() {
				continue
			}
			waiting := false
			for _, cd := range q.Candidates(buf) {
				waiting = waiting || cd.ROBIdx == rob.Head()
			}
			if !waiting {
				rob.PopHead()
			}
		default: // flush, rarely
			if next(8) == 0 {
				rob.FlushAll()
				q.FlushAll()
			}
		}
		check()
	}
}

// TestPayloadPartialUnpackAgrees: the fields the issue stage unpacks
// early equal the full unpack's, for valid and absent registers.
func TestPayloadPartialUnpackAgrees(t *testing.T) {
	regs := []PhysReg{PhysNone, {Idx: 0}, {Idx: 77}, {FP: true, Idx: 5}, {FP: true, Idx: 0x7fe}}
	for _, s1 := range regs {
		for _, s2 := range regs {
			w0, w1 := PackUop(isa.Uop{Op: isa.FMul, Imm: -9}, regs[2], s1, s2)
			pl := Payload{w0, w1}
			full := pl.Unpack()
			a, b := pl.Sources()
			if a != full.Src1 || b != full.Src2 || pl.Op() != full.Op || full != UnpackUop(w0, w1) {
				t.Fatalf("src %v,%v: partial %v,%v op %v, full %+v", s1, s2, a, b, pl.Op(), full)
			}
		}
	}
}
