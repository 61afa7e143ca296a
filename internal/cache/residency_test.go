package cache

import (
	"math/rand"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/mem"
)

// twoLevel builds L1 over L2 over RAM with the given L2 capacity and the
// hierarchy value the exit rule reads.
func twoLevel(dual bool, l2Size, l2Ways int) (l1, l2 *Cache, m *mem.Memory, h *Hierarchy) {
	m = mem.New()
	l2 = New(Config{Name: "l2", Size: l2Size, LineSize: 64, Ways: l2Ways, Latency: 12, DualCopy: dual}, MemLevel{M: m, Lat: 100})
	l1 = New(Config{Name: "l1d", Size: 32 << 10, LineSize: 64, Ways: 4, Latency: 2, DualCopy: dual}, l2)
	return l1, l2, m, NewHierarchy(m, []*Cache{l1, l2}, nil)
}

func flip(a *bitarray.Array, entry, bit int) {
	a.Arm(bitarray.Fault{Kind: bitarray.Transient, Entry: entry, Bit: bit})
	a.Tick(0)
}

func firstFaultEntry(a *bitarray.Array) int {
	f, _ := a.FaultAt(0)
	return f.Entry
}

// accessCounts sums every counter an access or an observation moves,
// over all arrays of the caches.
func accessCounts(cs ...*Cache) (n uint64) {
	for _, c := range cs {
		for _, a := range c.Arrays() {
			n += a.Reads() + a.Writes() + a.ObservedReads() + a.ObservedWrites()
		}
	}
	return n
}

// TestDualCopyLineSafeWhenContentIsRAMAgain walks one faulted L1 line of
// a dual-copy hierarchy through the content rule: corrupt → resident; a
// store elsewhere in the line → still resident; a store over the flipped
// byte → capture-safe, with the line still valid. The rule looks without
// touching: no counter moves and the fault stays unconsumed.
func TestDualCopyLineSafeWhenContentIsRAMAgain(t *testing.T) {
	l1, l2, _, h := twoLevel(true, 1<<20, 16)
	const addr = 0x5000
	l1.Write(addr, []byte{0x11, 0x22, 0x33, 0x44})
	line := lineIndexOf(l1, addr)
	watch := []*bitarray.Array{l1.DataArray()}
	if !h.CaptureSafe(watch) {
		t.Fatalf("no fault armed: resident, want capture-safe")
	}
	flip(l1.DataArray(), line, 8*2+5) // byte 2 of the line

	if h.CaptureSafe(watch) {
		t.Fatalf("flipped line: capture-safe, want resident")
	}
	l1.Write(addr+32, []byte{0xaa}) // same line, another byte
	before := accessCounts(l1, l2)
	for i := 0; i < 10; i++ {
		if h.CaptureSafe(watch) {
			t.Fatalf("after a store elsewhere in the line: capture-safe, want resident")
		}
	}
	if after := accessCounts(l1, l2); after != before {
		t.Fatalf("CaptureSafe moved an access or observation counter (%d → %d)", before, after)
	}
	if st := l1.DataArray().FaultStatus(); st != bitarray.StatusLive {
		t.Fatalf("fault is %v, want live: the rule must not consume it", st)
	}

	// Consume the fault, then overwrite the flipped byte: the line is
	// valid, the fault consumed, and array and RAM agree again.
	var b [1]byte
	l1.Read(addr+2, b[:])
	if b[0] != 0x33^(1<<5) {
		t.Fatalf("read %#x through the flipped line", b[0])
	}
	if h.CaptureSafe(watch) {
		t.Fatalf("consumed, not yet overwritten: capture-safe, want resident")
	}
	l1.Write(addr+2, []byte{0x77})
	if !l1.Present(addr) {
		t.Fatal("line left the cache")
	}
	if !h.CaptureSafe(watch) {
		t.Fatalf("after the store over the flipped byte: resident, want capture-safe")
	}
}

// TestDualCopyLineSafeWhenEvicted: eviction keeps answering safe, as at
// the parent — the replacing line is RAM's content by construction.
func TestDualCopyLineSafeWhenEvicted(t *testing.T) {
	l1, _, _, h := twoLevel(true, 1<<20, 16)
	l1.Write(0x5000, []byte{0x11})
	line := lineIndexOf(l1, 0x5000)
	flip(l1.DataArray(), line, 0)
	var b [1]byte
	l1.Read(0x5000, b[:]) // consumed
	watch := []*bitarray.Array{l1.DataArray()}
	if h.CaptureSafe(watch) {
		t.Fatal("before eviction: capture-safe, want resident")
	}
	for i := uint64(1); i <= 4; i++ {
		l1.Read(0x5000+i*8192, b[:])
	}
	if l1.Present(0x5000) {
		t.Fatal("line still present")
	}
	if !h.CaptureSafe(watch) {
		t.Fatalf("after eviction: resident, want capture-safe")
	}
}

// TestTagValidAndWriteBackAnswerAsBefore pins the arms the content rule
// leaves alone: under write-back a valid line is safe exactly when
// dirty; a tag or valid-bit fault under dual-copy is safe only once the
// line is invalid, whatever its bytes; and a data fault on a line that
// also carries a tag fault is judged by that rule too.
func TestTagValidAndWriteBackAnswerAsBefore(t *testing.T) {
	var b [1]byte
	for _, which := range []int{0, 1} { // data array, tag array
		l1, _, _, h := twoLevel(false, 1<<20, 16)
		l1.Read(0x5000, b[:]) // clean valid line
		arr := l1.Arrays()[which]
		flip(arr, lineIndexOf(l1, 0x5000), 0)
		watch := []*bitarray.Array{arr}
		if h.CaptureSafe(watch) {
			t.Errorf("write-back, array %d, clean valid line: capture-safe, want resident", which)
		}
		l1.setDirty(firstFaultEntry(arr), true) // as a store hit would; the flush then carries the line down
		if !h.CaptureSafe(watch) {
			t.Errorf("write-back, array %d, dirty line: resident, want capture-safe", which)
		}
		if which == 1 {
			// A stored tag naming an address beyond RAM: the flush could
			// not write it (the parent's capture panicked here).
			flip(arr, firstFaultEntry(arr), 31)
			if h.CaptureSafe(watch) {
				t.Errorf("write-back, dirty line tagged outside RAM: capture-safe, want resident")
			}
		}
	}

	l1, _, _, h := twoLevel(true, 1<<20, 16)
	l1.Write(0x5000, []byte{0x11})
	line := lineIndexOf(l1, 0x5000)
	tags, valid := l1.Arrays()[1], l1.Arrays()[2]

	flip(tags, line, 20)
	if h.CaptureSafe([]*bitarray.Array{tags}) {
		t.Errorf("dual-copy tag fault, valid line: capture-safe, want resident")
	}
	// The data of the line equals RAM, but the tag it is stored under is
	// faulted: the content rule does not apply.
	flip(l1.DataArray(), line, 0)
	l1.DataArray().WriteBytes(line, 0, []byte{0x11})
	if h.CaptureSafe([]*bitarray.Array{l1.DataArray()}) {
		t.Errorf("dual-copy data fault on a line with a tag fault: capture-safe, want resident")
	}
	tags.Disarm()
	if h.CaptureSafe([]*bitarray.Array{l1.DataArray()}) {
		t.Errorf("same line, tag fault disarmed but the stored tag still names another address: capture-safe, want resident")
	}
	tags.WriteWord(line, 0, l1.tagOf(0x5000))
	if !h.CaptureSafe([]*bitarray.Array{l1.DataArray()}) {
		t.Errorf("same line, tag repaired, bytes equal RAM: resident, want capture-safe")
	}

	stale := (line + 8) % len(l1.lruClock) // an invalid line: the flip 0→1 exposes it
	flip(valid, stale, 0)
	if h.CaptureSafe([]*bitarray.Array{valid}) {
		t.Errorf("dual-copy valid-bit fault exposing a stale line: capture-safe, want resident")
	}
	valid.Disarm()
	flip(valid, line, 0) // 1→0: the line is unreachable
	if !h.CaptureSafe([]*bitarray.Array{valid}) {
		t.Errorf("dual-copy valid-bit fault hiding a line: resident, want capture-safe")
	}
}

// TestLowerLevelFaultCopiedUpwardHoldsTheWindow is the hole in the
// per-line rule: a corrupt L2 line is copied into L1 by a refill, then
// leaves L2 (evicted by another address — possible only with an L2 small
// enough to thrash under a resident L1). The faulted L2 line itself is
// then safe by every per-line rule, the parent's included, while L1
// still serves bytes RAM does not hold.
func TestLowerLevelFaultCopiedUpwardHoldsTheWindow(t *testing.T) {
	for _, dual := range []bool{true, false} {
		// A direct-mapped 2-line L2: 0x5000 and 0x7100 share its set 0
		// and live in different L1 sets.
		l1, l2, m, h := twoLevel(dual, 128, 1)
		m.RawWrite(0x5000, []byte{0x11})
		var b [1]byte
		l2.Read(0x5000, b[:])
		flip(l2.DataArray(), lineIndexOf(l2, 0x5000), 0)
		watch := []*bitarray.Array{l2.DataArray()}
		l1.Read(0x5000, b[:])
		if b[0] != 0x10 {
			t.Fatalf("dual=%v: L1 refilled %#x, want the corrupt 0x10", dual, b[0])
		}
		if h.CaptureSafe(watch) {
			t.Fatalf("dual=%v: corrupt line still in L2: capture-safe, want resident", dual)
		}
		// Another address takes the L2 line. Under write-back the store
		// is then pushed down, so the L2 line is dirty — which is what
		// the parent's rule called safe; under dual-copy the line is
		// RAM's content for the new address.
		l1.Write(0x7100, []byte{0x55})
		if !dual {
			for i := uint64(1); i <= 4; i++ {
				l1.Read(0x7100+i*8192, b[:])
			}
			l2.Write(0x7100, []byte{0x55})
		}
		l1.Read(0x5000, b[:])
		var ram [1]byte
		m.RawRead(0x5000, ram[:])
		if l2.Present(0x5000) || b[0] == ram[0] {
			t.Fatalf("dual=%v: scenario broken: 0x5000 in L2 %v, L1 serves %#x, RAM holds %#x", dual, l2.Present(0x5000), b[0], ram[0])
		}
		faulted := firstFaultEntry(l2.DataArray())
		if !h.lineCaptureSafe(l2, l2.DataArray(), faulted) {
			t.Fatalf("dual=%v: scenario broken: the faulted L2 line is not safe by the per-line rule", dual)
		}
		if h.CaptureSafe(watch) {
			t.Errorf("dual=%v: L1 serves %#x where RAM holds %#x, yet the consumed L2 fault is capture-safe", dual, b[0], ram[0])
		}
	}
}

// TestTLBFaultResidentWhileEntryValid: the TLB arm, through the
// hierarchy value.
func TestTLBFaultResidentWhileEntryValid(t *testing.T) {
	m := mem.New()
	tlb := NewTLB(TLBConfig{Name: "dtlb", Entries: 8, Ways: 2, MissLatency: 20})
	h := NewHierarchy(m, nil, []*TLB{tlb})
	tags := tlb.Arrays()[1]
	flip(tags, 0, 3)
	watch := []*bitarray.Array{tags}
	if !h.CaptureSafe(watch) {
		t.Fatal("fault in an invalid entry: resident, want capture-safe")
	}
	tlb.Translate(0x4000) // set 0, fills entry 0
	reads := tlb.Arrays()[0].Reads()
	if h.CaptureSafe(watch) {
		t.Fatalf("fault in a valid entry: capture-safe, want resident")
	}
	if tlb.Arrays()[0].Reads() != reads {
		t.Error("the TLB arm read the valid array")
	}
}

// TestSparseStateEqualsDense: State → SetState reproduces a cache
// exactly — including the stale bytes of invalidated lines, which a
// valid-bit fault can expose — whatever the target cache held before,
// and a qsort-like footprint costs a fraction of the dense copy.
func TestSparseStateEqualsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dual := range []bool{true, false} {
		l1, l2, _, _ := twoLevel(dual, 1<<20, 16)
		buf := make([]byte, 8)
		for i := 0; i < 3000; i++ {
			addr := 0x4000 + uint64(rng.Intn(0x40000))&^7
			rng.Read(buf)
			if rng.Intn(2) == 0 {
				l1.Write(addr, buf)
			} else {
				l1.Read(addr, buf)
			}
		}
		// Invalidate some lines behind the cache's back, leaving their
		// data and tags in place.
		stale := 0
		for line := 0; line < len(l1.lruClock); line += 3 {
			if l1.valid.Peek(line)[0] != 0 {
				l1.valid.WriteBit(line, 0, 0)
				stale++
			}
		}
		if stale == 0 {
			t.Fatal("no stale lines made")
		}
		for _, c := range []*Cache{l1, l2} {
			st := c.State()
			// A target that held other content everywhere.
			other := New(c.cfg, MemLevel{M: mem.New(), Lat: 1})
			for _, a := range other.Arrays() {
				for e := 0; e < a.Entries(); e++ {
					a.WriteWord(e, 0, ^uint64(0))
				}
			}
			for i := range other.lruClock {
				other.setDirty(i, true)
				other.lruClock[i] = 99
			}
			other.SetState(st)
			for i, a := range c.Arrays() {
				oa := other.Arrays()[i]
				for e := 0; e < a.Entries(); e++ {
					for w, v := range a.Peek(e) {
						if oa.Peek(e)[w] != v {
							t.Fatalf("dual=%v %s entry %d word %d: restored %#x, captured %#x", dual, a.Name(), e, w, oa.Peek(e)[w], v)
						}
					}
				}
			}
			for line := range c.lruClock {
				if other.isDirty(line) != c.isDirty(line) || other.lruClock[line] != c.lruClock[line] {
					t.Fatalf("dual=%v %s line %d: dirty/LRU not restored", dual, c.cfg.Name, line)
				}
			}
			if other.clock != c.clock || other.stats != c.stats {
				t.Fatalf("dual=%v %s: clock/stats not restored", dual, c.cfg.Name)
			}
		}
		lines := len(l2.lruClock)
		dense := 8*(lines+lines+lines*8+lines) + lines
		if got := l2.State().SizeBytes(); got*100 > dense*15 {
			t.Errorf("dual=%v: sparse L2 state is %d bytes, dense %d: want under 15%%", dual, got, dense)
		}
	}
}
