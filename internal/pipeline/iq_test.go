package pipeline

import (
	"testing"

	"repro/internal/bitarray"
	"repro/internal/isa"
)

// waiting lists the occupied slots the way the issue loop walks them,
// from Select's result through Younger; it reads nothing itself.
func waiting(q *IQ, oldest int) []int {
	var slots []int
	for i := oldest; i >= 0; i = q.Younger(i) {
		slots = append(slots, i)
	}
	return slots
}

// TestIQCandidatesOldestFirst drives an issue queue and a ROB the way
// rename, issue, commit and flush do — entries enter in program order,
// leave in any order, lowest-free slot reuse scrambles slot order — and
// requires, every step: the selection walk ordered by the ROB sequence
// number of the micro-op each slot is tied to, each occupied slot read
// through the faultable array exactly once (two words) and no free slot
// read, and a walk that releases the slot it stands on still visiting
// every waiting slot.
func TestIQCandidatesOldestFirst(t *testing.T) {
	rob := NewROB(16)
	q := NewIQ("iq", 6)
	rng := uint32(1)
	next := func(n int) int {
		rng = rng*1664525 + 1013904223
		return int(rng>>16) % n
	}
	check := func() {
		t.Helper()
		reads := q.Array().Reads()
		cands := waiting(q, q.Select())
		if got := q.Array().Reads() - reads; got != uint64(2*q.Len()) {
			t.Fatalf("selection made %d word reads for %d waiting micro-ops", got, q.Len())
		}
		if len(cands) != q.Len() {
			t.Fatalf("%d candidates for %d waiting micro-ops", len(cands), q.Len())
		}
		for i, slot := range cands {
			if !q.Occupied(slot) {
				t.Fatalf("candidate %d names free slot %d", i, slot)
			}
			if p, r := q.Read(slot), q.ROBIdx(slot); uint64(p.Imm) != rob.At(r).Seq {
				t.Fatalf("candidate %d: slot %d holds seq %d, ROB index %d holds %d", i, slot, p.Imm, r, rob.At(r).Seq)
			}
			if i > 0 && rob.At(q.ROBIdx(cands[i-1])).Seq >= rob.At(q.ROBIdx(slot)).Seq {
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
			if !q.Alloc(&isa.Uop{Op: isa.Add, Imm: int64(rob.At(idx).Seq)}, PhysNone, PhysNone, PhysNone, idx) {
				t.Fatal("alloc with space left")
			}
		case op < 8: // issue: each waiting micro-op leaves with odds 1/2
			want := waiting(q, q.Select())
			var seen []int
			for slot, younger := q.Select(), 0; slot >= 0; slot = younger {
				seen = append(seen, slot)
				if next(2) == 0 {
					q.Release(slot)
				}
				younger = q.Younger(slot)
			}
			if len(seen) != len(want) {
				t.Fatalf("a releasing walk visited %v, %v were waiting", seen, want)
			}
		case op < 9: // commit: the head retires once it has issued
			if rob.Empty() {
				continue
			}
			waits := false
			for _, slot := range waiting(q, q.Select()) {
				waits = waits || q.ROBIdx(slot) == rob.Head()
			}
			if !waits {
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

// TestNewUopIsItsOwnUnpack: the micro-op rename hands the queue, which
// the queue keeps as its copy of the slot, equals what unpacking its own
// payload words gives — for absent registers, the FP class, the widest
// index NewRegFile allows and fields wider than their packed widths.
func TestNewUopIsItsOwnUnpack(t *testing.T) {
	regs := []PhysReg{PhysNone, {Idx: 0}, {Idx: 77}, {FP: true, Idx: 5}, {FP: true, Idx: 0x7fe}}
	for _, s1 := range regs {
		for _, s2 := range regs {
			u := isa.Uop{Op: isa.FMul, Cond: 0x13, Size: 0x18, SignExt: true, Imm: -9}
			p := NewUop(u, regs[3], s1, s2)
			if got := UnpackUop(p.Words()); got != p {
				t.Fatalf("src %v,%v: NewUop %+v, its unpacked payload %+v", s1, s2, p, got)
			}
		}
	}
}

// FuzzIQMatchesArray drives an issue queue through random sequences of
// allocations, releases, wakeup reads, selections, flushes and state
// round trips, sometimes with a transient fault armed on its array or a
// profile recording, and holds it to the faultable array it stands for:
// every allocation takes the lowest free slot a linear scan finds,
// selection lists the occupied slots in allocation order, a wakeup read
// returns the payload the array holds, on a quiet array every occupied
// slot's copy is its unpacked payload, and the read and write counters
// are the ones that fetching every payload word would give.
func FuzzIQMatchesArray(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3, 0, 9, 1, 0, 2, 0, 3, 5, 0, 0, 6, 2})
	f.Add([]byte{70, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 7, 0, 33, 2, 1, 3, 8, 0, 1, 5, 0, 0, 6, 9})
	f.Add([]byte{2, 8, 0, 0, 3, 6, 0, 2, 1, 0, 8, 0, 0, 4, 0, 0, 7, 1, 2, 2, 5, 6, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		size := 1 + int(prog[0])%70
		prog = prog[1:]
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		q := NewIQ("iq", size)
		arr := q.Array()
		var (
			age           []int // the model: occupied slots, oldest first
			saved         *IQState
			savedAge      []int
			reads, writes uint64
			seq           int64
		)
		payload := func(i int) PackedUop {
			pl := arr.Peek(i)
			return UnpackUop(pl[0], pl[1])
		}
		for step := 0; len(prog) > 0; step++ {
			switch op := next() % 10; op {
			case 0, 1: // rename
				want := -1
				for i := 0; i < size; i++ {
					if !q.Occupied(i) {
						want = i
						break
					}
				}
				seq++
				u := isa.Uop{Op: isa.Op(next() % isa.NumOps), Cond: isa.Cond(next()), Size: uint8(next()),
					SignExt: next()&1 != 0, UsesImm: next()&1 != 0, Imm: seq * -7919}
				reg := func() PhysReg {
					if b := next(); b&1 == 0 {
						return PhysReg{FP: b&2 != 0, Idx: uint16(b >> 2)}
					}
					return PhysNone
				}
				p := NewUop(u, reg(), reg(), reg())
				if got := q.Alloc(&u, p.Dst, p.Src1, p.Src2, int(seq)); got != (want >= 0) {
					t.Fatalf("step %d: alloc %v with lowest free slot %d", step, got, want)
				}
				if want >= 0 {
					if q.tail != want {
						t.Fatalf("step %d: alloc took slot %d, the lowest free slot is %d", step, q.tail, want)
					}
					writes += 2
					age = append(age, want)
					if got := *q.Read(want); got != p {
						t.Fatalf("step %d: slot %d reads %+v, allocated %+v", step, want, got, p)
					}
					reads += 2
				}
			case 2, 3: // issue one waiting micro-op
				if len(age) > 0 {
					k := next() % len(age)
					q.Release(age[k])
					age = append(age[:k:k], age[k+1:]...)
				}
			case 4: // wakeup
				if len(age) > 0 {
					i := age[next()%len(age)]
					if got, want := *q.Read(i), payload(i); got != want {
						t.Fatalf("step %d: slot %d reads %+v, the array holds %+v", step, i, got, want)
					}
					reads += 2
				}
			case 5: // selection
				cands := waiting(q, q.Select())
				reads += uint64(2 * len(age))
				if len(cands) != len(age) {
					t.Fatalf("step %d: %d candidates, %d waiting", step, len(cands), len(age))
				}
				for k, slot := range cands {
					if slot != age[k] {
						t.Fatalf("step %d: candidate %d is slot %d, want %d", step, k, slot, age[k])
					}
				}
			case 6: // flush
				if next()%4 == 0 {
					q.FlushAll()
					age = age[:0]
				}
			case 7: // checkpoint, or restore the last one
				if b := next(); b&1 == 0 || saved == nil {
					saved, savedAge = q.State(), append([]int(nil), age...)
				} else {
					q.SetState(saved)
					age = append(age[:0], savedAge...)
				}
			case 8: // a transient fault on the array, applied at once
				if arr.FaultCount() == 0 {
					arr.Arm(bitarray.Fault{Kind: bitarray.Transient, Entry: next() % size, Bit: next() % 128})
					arr.Tick(0)
				}
			case 9: // a profile starts or stops recording
				if arr.StopProfile() == nil {
					arr.StartProfile(func() uint64 { return uint64(step) })
				}
			}
			if q.Len() != len(age) {
				t.Fatalf("step %d: Len %d, %d waiting", step, q.Len(), len(age))
			}
			if arr.Reads() != reads || arr.Writes() != writes {
				t.Fatalf("step %d: %d reads / %d writes, fetching every word makes %d / %d",
					step, arr.Reads(), arr.Writes(), reads, writes)
			}
			if arr.Quiet() {
				for _, i := range age {
					if q.uops[i] != payload(i) {
						t.Fatalf("step %d: quiet slot %d copies %+v, the array holds %+v", step, i, q.uops[i], payload(i))
					}
				}
			}
		}
	})
}

// TestIQNextReadyMatchesProbes: NextReady must find, and count its way
// to, the slot the issue stage's probing walk finds — the oldest whose
// sources the register files report produced, through Read and
// RegFile.Ready — over random renames, allocations, writes, releases,
// flushes and state round trips.
func TestIQNextReadyMatchesProbes(t *testing.T) {
	for seed := uint32(1); seed <= 20; seed++ {
		intRF, fpRF := NewRegFile("rf.int", 8, 40, false), NewRegFile("rf.fp", 4, 20, true)
		q := NewIQ("iq", 12)
		rng := seed
		next := func(n int) int {
			rng = rng*1664525 + 1013904223
			return int(rng>>16) % n
		}
		file := func(fp bool) *RegFile {
			if fp {
				return fpRF
			}
			return intRF
		}
		src := func() PhysReg {
			switch next(4) {
			case 0:
				return PhysNone
			case 1:
				return fpRF.Lookup(next(4))
			}
			return intRF.Lookup(next(8))
		}
		var inflight []PhysReg
		type saved struct {
			i, f *RegFileState
			q    *IQState
		}
		var snap *saved
		for step := 0; step < 2000; step++ {
			switch op := next(10); {
			case op < 2: // rename: a fresh register, not produced yet
				fp := next(3) == 0
				arch := next(8)
				if fp {
					arch = next(4)
				}
				if d, _, ok := file(fp).Rename(arch); ok {
					inflight = append(inflight, d)
				}
			case op < 5:
				if !q.Full() {
					q.Alloc(&isa.Uop{Op: isa.Add}, PhysNone, src(), src(), step)
				}
			case op < 7:
				if len(inflight) > 0 {
					k := next(len(inflight))
					p := inflight[k]
					file(p.FP).Write(p, uint64(step))
					inflight = append(inflight[:k], inflight[k+1:]...)
				}
			case op < 9:
				if q.Len() > 0 {
					i := q.Select()
					for n := next(q.Len()); n > 0; n-- {
						i = q.Younger(i)
					}
					q.Release(i)
				}
			default:
				switch {
				case next(3) == 0:
					q.FlushAll()
					intRF.Flush()
					fpRF.Flush()
					inflight = inflight[:0]
				case snap == nil || next(2) == 0:
					snap = &saved{intRF.State(), fpRF.State(), q.State()}
				default:
					intRF.SetState(snap.i)
					fpRF.SetState(snap.f)
					q.SetState(snap.q)
					inflight = inflight[:0]
					for _, rf := range []*RegFile{intRF, fpRF} {
						for p := range rf.ready {
							if rf.isLive(p) && !rf.ready[p] {
								inflight = append(inflight, PhysReg{FP: rf.fp, Idx: uint16(p)})
							}
						}
					}
				}
			}
			probe := func(p PhysReg) bool { return !p.Valid() || file(p.FP).Ready(p) }
			for from := q.Select(); from >= 0; from = q.Younger(from) {
				want, passed := -1, 0
				for i := from; i >= 0; i = q.Younger(i) {
					if u := q.Read(i); probe(u.Src1) && probe(u.Src2) {
						want = i
						break
					}
					passed++
				}
				if got, n := q.NextReady(from, intRF, fpRF); got != want || n != passed {
					t.Fatalf("seed %d step %d: NextReady from %d: slot %d after %d, the probing walk finds %d after %d",
						seed, step, from, got, n, want, passed)
				}
			}
		}
	}
}
