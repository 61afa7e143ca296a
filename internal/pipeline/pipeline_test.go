package pipeline

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestRegFileRenameCommitFlush(t *testing.T) {
	rf := NewRegFile("rf.int", 19, 64, false)
	if rf.FreeCount() != 64-19 {
		t.Fatalf("free = %d", rf.FreeCount())
	}
	// Initially arch i maps to phys i.
	p0 := rf.Lookup(3)
	if p0.Idx != 3 || p0.FP {
		t.Fatalf("initial mapping %v", p0)
	}
	dst, old, ok := rf.Rename(3)
	if !ok || old.Idx != 3 {
		t.Fatalf("rename: %v %v %v", dst, old, ok)
	}
	if rf.Ready(dst) {
		t.Fatal("fresh phys ready")
	}
	rf.Write(dst, 42)
	if !rf.Ready(dst) || rf.Read(dst) != 42 {
		t.Fatal("write/read failed")
	}
	// Speculative lookup sees the new mapping; architectural does not.
	if rf.Lookup(3) != dst {
		t.Fatal("RAT not updated")
	}
	// Flush before commit: mapping reverts, phys reg freed.
	free := rf.FreeCount()
	rf.Flush()
	if rf.Lookup(3).Idx != 3 {
		t.Fatal("flush did not restore RAT")
	}
	if rf.FreeCount() != free+1 {
		t.Fatalf("flush free count %d, want %d", rf.FreeCount(), free+1)
	}
	// Rename + commit: architectural state moves forward.
	dst, old, _ = rf.Rename(3)
	rf.Write(dst, 99)
	rf.Commit(3, dst, old)
	if rf.ReadArch(3) != 99 {
		t.Fatalf("arch read = %d", rf.ReadArch(3))
	}
	rf.Flush()
	if rf.Lookup(3) != dst {
		t.Fatal("flush lost committed mapping")
	}
}

// TestRegFileFlushShortcutIsExact drives a register file through random
// renames, commits, writes, flushes and state restores beside a twin
// that rebuilds on every flush, and requires the two to hold the same
// state — rename tables, free-list order included — after every step.
func TestRegFileFlushShortcutIsExact(t *testing.T) {
	r, ref := NewRegFile("rf", 8, 20, false), NewRegFile("rf", 8, 20, false)
	type inflight struct {
		arch     int
		dst, old PhysReg
	}
	var q []inflight
	var saved *RegFileState
	rng := uint32(7)
	next := func(n int) int {
		rng = rng*1664525 + 1013904223
		return int(rng>>16) % n
	}
	for step := 0; step < 5000; step++ {
		switch op := next(12); {
		case op < 4:
			arch := next(8)
			d, o, ok := r.Rename(arch)
			rd, ro, rok := ref.Rename(arch)
			if ok != rok || d != rd || o != ro {
				t.Fatalf("step %d: rename %v %v %v, twin %v %v %v", step, d, o, ok, rd, ro, rok)
			}
			if ok {
				q = append(q, inflight{arch, d, o})
			}
		case op < 7:
			if len(q) > 0 {
				r.Commit(q[0].arch, q[0].dst, q[0].old)
				ref.Commit(q[0].arch, q[0].dst, q[0].old)
				q = q[1:]
			}
		case op < 9:
			if len(q) > 0 {
				p := q[next(len(q))].dst
				r.Write(p, uint64(step))
				ref.Write(p, uint64(step))
			}
		case op < 11:
			r.Flush()
			ref.dirty = true
			ref.Flush()
			// The core squashes everything in flight at a flush; keeping
			// it here half the time also commits into a flushed file.
			if next(2) == 0 {
				q = q[:0]
			}
		default:
			if saved == nil || next(2) == 0 {
				saved = r.State()
			} else {
				r.SetState(saved)
				ref.SetState(saved)
				q = q[:0]
			}
		}
		a, b := r.State(), ref.State()
		a.Reads, a.Writes, b.Reads, b.Writes = 0, 0, 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: state %+v, a file that always rebuilds holds %+v", step, a, b)
		}
	}
}

func TestRegFileExhaustion(t *testing.T) {
	rf := NewRegFile("rf", 4, 8, false)
	for i := 0; i < 4; i++ {
		if _, _, ok := rf.Rename(0); !ok {
			t.Fatalf("rename %d failed early", i)
		}
	}
	if _, _, ok := rf.Rename(0); ok {
		t.Fatal("rename succeeded with empty free list")
	}
	rf.Flush()
	if rf.FreeCount() != 4 {
		t.Fatalf("after flush free = %d", rf.FreeCount())
	}
}

func TestRegFilePanicsOnBadGeometry(t *testing.T) {
	for _, phys := range []int{8, 0x800} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%d physical registers: no panic", phys)
				}
			}()
			NewRegFile("rf", 8, phys, false)
		}()
	}
	NewRegFile("rf", 8, 0x7ff, false) // the widest file the issue queue can name
}

func TestROBOrdering(t *testing.T) {
	r := NewROB(4)
	a := r.Alloc()
	b := r.Alloc()
	r.At(a).PC = 100
	r.At(b).PC = 105
	if r.Len() != 2 || r.Head() != a {
		t.Fatal("alloc/head")
	}
	var pcs []uint64
	r.Walk(func(_ int, e *ROBEntry) bool {
		pcs = append(pcs, e.PC)
		return true
	})
	if len(pcs) != 2 || pcs[0] != 100 || pcs[1] != 105 {
		t.Fatalf("walk order %v", pcs)
	}
	if r.At(a).Seq >= r.At(b).Seq {
		t.Fatal("seq not increasing")
	}
	r.PopHead()
	if r.Head() != b {
		t.Fatal("pop")
	}
	r.FlushAll()
	if !r.Empty() {
		t.Fatal("flush")
	}
}

func TestROBWraparound(t *testing.T) {
	r := NewROB(3)
	for round := 0; round < 5; round++ {
		x := r.Alloc()
		r.At(x).PC = uint64(round)
		if r.At(r.Head()).PC != uint64(round) {
			t.Fatal("head wrong")
		}
		r.PopHead()
	}
	for i := 0; i < 3; i++ {
		r.Alloc()
	}
	if !r.Full() {
		t.Fatal("not full")
	}
}

func TestPackUnpackUop(t *testing.T) {
	u := isa.Uop{Op: isa.Load, Cond: isa.CondLE, Size: 4, SignExt: true, UsesImm: true, Imm: -123456789}
	dst := PhysReg{FP: false, Idx: 200}
	s1 := PhysReg{FP: true, Idx: 77}
	p := UnpackUop(NewUop(u, dst, s1, PhysNone).Words())
	if p.Op != isa.Load || p.Dst != dst || p.Src1 != s1 || p.Src2 != PhysNone ||
		p.Cond != isa.CondLE || p.Size != 4 || !p.SignExt || !p.UsesImm || p.Imm != -123456789 {
		t.Fatalf("round trip: %+v", p)
	}
}

func TestPropPackUnpackIdentity(t *testing.T) {
	f := func(op, cond, size uint8, se, ui, d8 bool, dIdx, s1Idx, s2Idx uint16, imm int64) bool {
		u := isa.Uop{Op: isa.Op(op % 40), Cond: isa.Cond(cond % 11), Size: size % 9,
			SignExt: se, UsesImm: ui, Imm: imm}
		mk := func(idx uint16, fp bool) PhysReg {
			return PhysReg{FP: fp, Idx: idx % 0x7ff}
		}
		dst, s1, s2 := mk(dIdx, d8), mk(s1Idx, !d8), mk(s2Idx, false)
		p := UnpackUop(NewUop(u, dst, s1, s2).Words())
		return p.Op == u.Op && p.Cond == u.Cond && p.Size == u.Size%16 &&
			p.SignExt == se && p.UsesImm == ui && p.Imm == imm &&
			p.Dst == dst && p.Src1 == s1 && p.Src2 == s2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIQAllocReleaseFlush(t *testing.T) {
	q := NewIQ("iq", 4)
	for i := 0; i < 4; i++ {
		if !q.Alloc(UnpackUop(uint64(i), uint64(i)<<8), i*10) {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if !q.Full() || q.Alloc(PackedUop{}, 0) {
		t.Fatal("overfull")
	}
	if p := q.Read(2); p.Imm != 2 {
		t.Fatalf("payload: %+v", p)
	}
	q.Release(2)
	if q.Len() != 3 || q.Occupied(2) {
		t.Fatal("release")
	}
	q.FlushAll()
	if q.Len() != 0 {
		t.Fatal("flush")
	}
}

func TestLSQUnifiedForwarding(t *testing.T) {
	q := NewLSQ(LSQConfig{Name: "lsq.data", Unified: true, LoadEntries: 32})
	st, ok := q.Alloc(true, 1, 0)
	if !ok {
		t.Fatal("store alloc")
	}
	// seq comes from caller; simulate program order st(seq=1) < ld(seq=2).
	q.entries[st].seq = 1
	q.SetAddr(st, 0x1000, 8)
	q.PutData(st, 0x1122334455667788)
	ld, _ := q.Alloc(false, 2, 2)
	q.SetAddr(ld, 0x1002, 2)
	res := q.QueryLoad(ld)
	if !res.Forward || res.FwdIdx != st || res.FwdShift != 2 {
		t.Fatalf("forward: %+v", res)
	}
	// Little-endian: bytes 2..3 of 0x1122334455667788 are 0x66,0x55.
	v := q.Data(res.FwdIdx) >> (8 * res.FwdShift)
	if uint16(v) != 0x5566 {
		t.Fatalf("forwarded %x", uint16(v))
	}
}

func TestLSQPartialOverlapMustWait(t *testing.T) {
	q := NewLSQ(LSQConfig{Name: "lsq", Unified: true, LoadEntries: 8})
	st, _ := q.Alloc(true, 1, 1)
	q.SetAddr(st, 0x1000, 2)
	q.PutData(st, 0xBEEF)
	ld, _ := q.Alloc(false, 2, 2)
	q.SetAddr(ld, 0x1001, 4) // partially covered
	res := q.QueryLoad(ld)
	if !res.MustWait || res.Forward {
		t.Fatalf("partial: %+v", res)
	}
}

func TestLSQUnknownOlderStore(t *testing.T) {
	q := NewLSQ(LSQConfig{Name: "lsq", Unified: true, LoadEntries: 8})
	q.Alloc(true, 1, 1) // address never resolved
	ld, _ := q.Alloc(false, 2, 2)
	q.SetAddr(ld, 0x2000, 4)
	res := q.QueryLoad(ld)
	if !res.UnknownOlder {
		t.Fatalf("unknown older not flagged: %+v", res)
	}
	if res.Forward || res.MustWait {
		t.Fatalf("unexpected: %+v", res)
	}
}

func TestLSQYoungestStoreWins(t *testing.T) {
	q := NewLSQ(LSQConfig{Name: "lsq", Unified: true, LoadEntries: 8})
	s1, _ := q.Alloc(true, 1, 1)
	q.SetAddr(s1, 0x3000, 8)
	q.PutData(s1, 0x1111111111111111)
	s2, _ := q.Alloc(true, 2, 2)
	q.SetAddr(s2, 0x3000, 8)
	q.PutData(s2, 0x2222222222222222)
	ld, _ := q.Alloc(false, 3, 3)
	q.SetAddr(ld, 0x3000, 8)
	res := q.QueryLoad(ld)
	if !res.Forward || res.FwdIdx != s2 {
		t.Fatalf("youngest-store: %+v", res)
	}
}

func TestLSQViolationDetection(t *testing.T) {
	q := NewLSQ(LSQConfig{Name: "lsq", Unified: true, LoadEntries: 8})
	st, _ := q.Alloc(true, 10, 1)
	ld, _ := q.Alloc(false, 20, 2)
	q.SetAddr(ld, 0x4000, 4)
	q.MarkExecuted(ld)
	// Store resolves later to an overlapping address.
	q.SetAddr(st, 0x4002, 4)
	viol := q.StoreResolved(st)
	if len(viol) != 1 || viol[0] != 20 {
		t.Fatalf("violations %v", viol)
	}
	// Non-overlapping store: no violations.
	st2, _ := q.Alloc(true, 30, 3)
	q.SetAddr(st2, 0x5000, 4)
	if v := q.StoreResolved(st2); len(v) != 0 {
		t.Fatalf("false violations %v", v)
	}
}

func TestLSQSplitOrganization(t *testing.T) {
	q := NewLSQ(LSQConfig{Name: "sq.data", Unified: false, LoadEntries: 16, StoreEntries: 16})
	ld, ok := q.Alloc(false, 1, 1)
	if !ok {
		t.Fatal("load alloc")
	}
	if q.HasDataStorage(ld) {
		t.Fatal("split-organization load has data storage")
	}
	st, _ := q.Alloc(true, 2, 2)
	if !q.HasDataStorage(st) {
		t.Fatal("store lacks data storage")
	}
	q.PutData(st, 0xABCD)
	if q.Data(st) != 0xABCD {
		t.Fatal("store data")
	}
	// Capacity is per class.
	for i := 0; i < 15; i++ {
		if _, ok := q.Alloc(false, 0, uint64(10+i)); !ok {
			t.Fatalf("load alloc %d", i)
		}
	}
	if q.CanAlloc(false) {
		t.Fatal("load queue should be full")
	}
	if !q.CanAlloc(true) {
		t.Fatal("store queue should have space")
	}
	// The data array of the split organization covers only stores.
	if q.DataArray().Entries() != 16 {
		t.Fatalf("data entries %d", q.DataArray().Entries())
	}
}

func TestLSQFreeAndFlush(t *testing.T) {
	q := NewLSQ(LSQConfig{Name: "lsq", Unified: true, LoadEntries: 4})
	a, _ := q.Alloc(false, 1, 1)
	b, _ := q.Alloc(true, 2, 2)
	q.Free(a)
	if q.Loads() != 0 || q.Stores() != 1 {
		t.Fatalf("counts %d/%d", q.Loads(), q.Stores())
	}
	q.Free(a) // double free is a no-op
	if q.Stores() != 1 {
		t.Fatal("double free")
	}
	_ = b
	q.FlushAll()
	if q.Loads() != 0 || q.Stores() != 0 {
		t.Fatal("flush")
	}
}
