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

// rebuildingRegFile is the register file's reference model: plain
// slices, and a flush that rebuilds the live set and the free list from
// scratch by a pass over every register, in descending index order, so
// that the lowest free register is handed out first. Commits push the
// displaced register on top.
type rebuildingRegFile struct {
	ready, live    []bool
	free           []uint16
	rat, commitRAT []uint16
}

func newRebuildingRegFile(archRegs, physRegs int) *rebuildingRegFile {
	m := &rebuildingRegFile{
		ready: make([]bool, physRegs), live: make([]bool, physRegs),
		rat: make([]uint16, archRegs), commitRAT: make([]uint16, archRegs),
	}
	for i := range m.rat {
		m.rat[i], m.commitRAT[i] = uint16(i), uint16(i)
		m.ready[i] = true
	}
	m.flush()
	return m
}

func (m *rebuildingRegFile) rename(arch int) (dst, old uint16, ok bool) {
	if len(m.free) == 0 {
		return 0, 0, false
	}
	n := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	old, m.rat[arch] = m.rat[arch], n
	m.ready[n], m.live[n] = false, true
	return n, old, true
}

func (m *rebuildingRegFile) commit(arch int, dst, old uint16) {
	m.commitRAT[arch] = dst
	m.free = append(m.free, old)
	m.live[old] = false
}

func (m *rebuildingRegFile) flush() {
	copy(m.rat, m.commitRAT)
	clear(m.live)
	for _, p := range m.commitRAT {
		m.live[p], m.ready[p] = true, true
	}
	m.free = m.free[:0]
	for i := len(m.live) - 1; i >= 0; i-- {
		if !m.live[i] {
			m.free = append(m.free, uint16(i))
		}
	}
}

func (m *rebuildingRegFile) setState(s *RegFileState) {
	copy(m.ready, s.Ready)
	copy(m.live, s.Live)
	m.free = append(m.free[:0], s.Free...)
	copy(m.rat, s.RAT)
	copy(m.commitRAT, s.CommitRAT)
}

// TestRegFileFlushShortcutIsExact drives register files of several
// geometries (one spanning more than one bitmap word) through random
// renames, commits, writes, flushes and state restores beside the
// rebuilding reference model, and requires the two to agree after every
// step: each rename's registers, the rename tables, readiness, the live
// set and the free list in the order it hands registers out. A file
// flushes in a few words of work (a file nothing was renamed into since
// its last flush not at all); the model pays a pass over every register.
func TestRegFileFlushShortcutIsExact(t *testing.T) {
	for _, g := range []struct{ arch, phys int }{{8, 20}, {16, 70}, {32, 256}} {
		for seed := uint32(1); seed <= 12; seed++ {
			regFileAgainstModel(t, g.arch, g.phys, seed)
		}
	}
}

func regFileAgainstModel(t *testing.T, archRegs, physRegs int, seed uint32) {
	t.Helper()
	r, m := NewRegFile("rf", archRegs, physRegs, false), newRebuildingRegFile(archRegs, physRegs)
	type inflight struct {
		arch     int
		dst, old PhysReg
	}
	var q []inflight
	var saved *RegFileState
	rng := seed
	next := func(n int) int {
		rng = rng*1664525 + 1013904223
		return int(rng>>16) % n
	}
	for step := 0; step < 3000; step++ {
		switch op := next(12); {
		case op < 4:
			arch := next(archRegs)
			d, o, ok := r.Rename(arch)
			md, mo, mok := m.rename(arch)
			if ok != mok || ok && (d.Idx != md || o.Idx != mo) {
				t.Fatalf("%d/%d seed %d step %d: rename %v %v %v, model %v %v %v", archRegs, physRegs, seed, step, d, o, ok, md, mo, mok)
			}
			if ok {
				q = append(q, inflight{arch, d, o})
			}
		case op < 7:
			if len(q) > 0 {
				r.Commit(q[0].arch, q[0].dst, q[0].old)
				m.commit(q[0].arch, q[0].dst.Idx, q[0].old.Idx)
				q = q[1:]
			}
		case op < 9:
			if len(q) > 0 {
				p := q[next(len(q))].dst
				r.Write(p, uint64(step))
				m.ready[p.Idx] = true
			}
		case op < 11:
			r.Flush()
			m.flush()
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
				m.setState(saved)
				q = q[:0]
			}
		}
		s := r.State()
		if !reflect.DeepEqual(s.Ready, m.ready) || !reflect.DeepEqual(s.Live, m.live) ||
			!reflect.DeepEqual(s.RAT, m.rat) || !reflect.DeepEqual(s.CommitRAT, m.commitRAT) ||
			!reflect.DeepEqual(s.Free, m.free) && (len(s.Free) > 0 || len(m.free) > 0) {
			t.Fatalf("%d/%d seed %d step %d: state %+v, the rebuilding model holds %+v", archRegs, physRegs, seed, step, s, m)
		}
		if r.FreeCount() != len(m.free) {
			t.Fatalf("%d/%d seed %d step %d: FreeCount %d, model %d", archRegs, physRegs, seed, step, r.FreeCount(), len(m.free))
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
		if !q.Alloc(&isa.Uop{Imm: int64(i)}, PhysNone, PhysNone, PhysNone, i*10) {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if !q.Full() || q.Alloc(&isa.Uop{}, PhysNone, PhysNone, PhysNone, 0) {
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
