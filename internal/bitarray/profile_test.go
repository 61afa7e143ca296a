package bitarray

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// fakeClock is a settable cycle source for profiling tests.
type fakeClock struct{ c uint64 }

func (f *fakeClock) now() uint64 { return f.c }

// entryEvents drains the iterator of one entry.
func entryEvents(p *Profile, entry int) []ProfileEvent {
	var out []ProfileEvent
	it := p.Events(entry)
	for ev, ok := it.Next(); ok; ev, ok = it.Next() {
		out = append(out, ev)
	}
	return out
}

func TestProfileRecordsAccessRanges(t *testing.T) {
	a := New("l1d.data", 4, 512)
	clk := &fakeClock{}
	a.StartProfile(clk.now)

	clk.c = 10
	a.ReadWord(1, 0)
	clk.c = 20
	a.WriteWord(1, 2, 0xABCD)
	clk.c = 30
	a.ReadBytes(2, 3, make([]byte, 4))
	clk.c = 40
	a.WriteBytes(2, 8, []byte{1, 2})
	clk.c = 50
	a.WriteBit(3, 70, 1)
	clk.c = 60
	a.InvalidateObserve(3)

	p := a.StopProfile()
	if p == nil {
		t.Fatal("StopProfile returned nil after StartProfile")
	}
	if p.Name != "l1d.data" || p.Entries != 4 || p.BitsPerEntry != 512 {
		t.Fatalf("profile header %q %d×%d", p.Name, p.Entries, p.BitsPerEntry)
	}
	want := map[int][]ProfileEvent{
		1: {
			{Cycle: 10, FirstBit: 0, NBits: 64, Kind: AccessRead},
			{Cycle: 20, FirstBit: 128, NBits: 64, Kind: AccessWrite},
		},
		2: {
			{Cycle: 30, FirstBit: 24, NBits: 32, Kind: AccessRead},
			{Cycle: 40, FirstBit: 64, NBits: 16, Kind: AccessWrite},
		},
		3: {
			// A single-bit write covers its whole word, like the
			// observation slow path does.
			{Cycle: 50, FirstBit: 64, NBits: 64, Kind: AccessWrite},
			{Cycle: 60, FirstBit: 0, NBits: 512, Kind: AccessEvict},
		},
	}
	for e, evs := range want {
		got := entryEvents(p, e)
		if len(got) != len(evs) {
			t.Fatalf("entry %d: %d events, want %d: %v", e, len(got), len(evs), got)
		}
		for i, ev := range evs {
			if got[i] != ev {
				t.Errorf("entry %d event %d = %+v, want %+v", e, i, got[i], ev)
			}
		}
	}
	if n := p.EventCount(); n != 6 {
		t.Errorf("EventCount = %d, want 6", n)
	}
}

func TestProfileReadBitRoutesThroughWord(t *testing.T) {
	a := New("valid", 8, 1)
	clk := &fakeClock{c: 5}
	a.StartProfile(clk.now)
	a.ReadBit(3, 0)
	p := a.StopProfile()
	evs := entryEvents(p, 3)
	if len(evs) != 1 || evs[0].Kind != AccessRead || evs[0].NBits != 64 {
		t.Fatalf("ReadBit events = %v", evs)
	}
}

func TestNextCovering(t *testing.T) {
	p := NewProfile("x", 128, [][]ProfileEvent{
		{
			{Cycle: 10, FirstBit: 0, NBits: 64, Kind: AccessWrite},
			{Cycle: 20, FirstBit: 64, NBits: 64, Kind: AccessRead},
			{Cycle: 30, FirstBit: 0, NBits: 128, Kind: AccessEvict},
		},
		nil,
	})
	// Injection before the first event of the word: the write covers it.
	if i, ev, ok := p.NextCovering(0, 5, 0); !ok || i != 0 || ev.Kind != AccessWrite {
		t.Fatalf("bit 5 cycle 0: i=%d ev=%+v ok=%v", i, ev, ok)
	}
	// The fault machine ticks before the cycle's accesses, so an access
	// in the injection cycle itself counts.
	if i, ev, ok := p.NextCovering(0, 5, 10); !ok || i != 0 || ev.Kind != AccessWrite {
		t.Fatalf("bit 5 cycle 10: i=%d ev=%+v ok=%v", i, ev, ok)
	}
	// After the write, the next covering event of bit 5 is the eviction.
	if i, ev, ok := p.NextCovering(0, 5, 11); !ok || i != 2 || ev.Kind != AccessEvict {
		t.Fatalf("bit 5 cycle 11: i=%d ev=%+v ok=%v", i, ev, ok)
	}
	// Bit 70 is covered by the read at 20.
	if i, ev, ok := p.NextCovering(0, 70, 11); !ok || i != 1 || ev.Kind != AccessRead {
		t.Fatalf("bit 70 cycle 11: i=%d ev=%+v ok=%v", i, ev, ok)
	}
	// Past every event: never accessed again.
	if _, _, ok := p.NextCovering(0, 5, 31); ok {
		t.Fatal("bit 5 cycle 31 should have no covering event")
	}
	// Untouched entry and out-of-range entries.
	if _, _, ok := p.NextCovering(1, 0, 0); ok {
		t.Fatal("entry 1 should have no events")
	}
	if _, _, ok := p.NextCovering(-1, 0, 0); ok {
		t.Fatal("entry -1 should be rejected")
	}
}

func TestStopProfileWithoutStart(t *testing.T) {
	a := New("x", 1, 64)
	if p := a.StopProfile(); p != nil {
		t.Fatalf("StopProfile without StartProfile = %+v", p)
	}
	// Unprofiled accesses must not record or panic.
	a.ReadWord(0, 0)
	a.WriteWord(0, 0, 1)
}

func TestProfileCoexistsWithObservation(t *testing.T) {
	// Profiling a run with an armed fault must not disturb the fault
	// state machine (campaigns never do this, but the hooks sit on the
	// same accessors).
	a := New("x", 2, 64)
	a.Arm(Fault{Kind: Transient, Entry: 0, Bit: 3, Start: 1})
	clk := &fakeClock{}
	a.StartProfile(clk.now)
	a.Tick(1)
	clk.c = 2
	a.WriteWord(0, 0, 0)
	if st := a.FaultStatus(); st != StatusOverwritten {
		t.Fatalf("fault status = %v, want overwritten", st)
	}
	p := a.StopProfile()
	if p.EventCount() != 1 {
		t.Fatalf("EventCount = %d", p.EventCount())
	}
}

// recorderStream is an access sequence long enough to fill the
// recorder's chunk several times over: entry 0 first touches every
// shape the sequence uses, in order, and then accesses go round the
// entries with the clock advancing by 0–2 cycles. Because entry 0 shows
// every shape first, the shapes appear in the same order whether the
// events are read in execution order or entry by entry.
func recorderStream(entries, n int) ([][]ProfileEvent, []execEvent) {
	shapes := []ProfileEvent{
		{FirstBit: 0, NBits: 64, Kind: AccessRead},
		{FirstBit: 64, NBits: 64, Kind: AccessRead},
		{FirstBit: 0, NBits: 64, Kind: AccessWrite},
		{FirstBit: 64, NBits: 64, Kind: AccessWrite},
		{FirstBit: 0, NBits: 128, Kind: AccessEvict},
	}
	events := make([][]ProfileEvent, entries)
	var order []execEvent
	var cycle uint64
	add := func(e int, ev ProfileEvent) {
		ev.Cycle = cycle
		events[e] = append(events[e], ev)
		order = append(order, execEvent{e, ev})
	}
	for _, sh := range shapes {
		add(0, sh)
	}
	for i := 0; i < n; i++ {
		cycle += uint64(i % 3)
		sh := shapes[i%4]
		if i%97 == 0 {
			sh = shapes[4]
		}
		add((i*7)%entries, sh)
	}
	return events, order
}

// The recorder folds a full chunk into the encoder and reuses it; across
// several such folds it must encode exactly what NewProfile encodes from
// the same per-entry events, through the public StartProfile path.
func TestProfileRecorderCrossesChunksLikeNewProfile(t *testing.T) {
	const entries = 5
	events, order := recorderStream(entries, 3*profChunk+profChunk/2)
	a := New("l1d.data", entries, 128)
	clk := &fakeClock{}
	a.StartProfile(clk.now)
	for _, r := range order {
		clk.c = r.ev.Cycle
		switch {
		case r.ev.Kind == AccessEvict:
			a.InvalidateObserve(r.entry)
		case r.ev.Kind == AccessWrite:
			a.WriteWord(r.entry, int(r.ev.FirstBit/64), clk.c)
		default:
			a.ReadWord(r.entry, int(r.ev.FirstBit/64))
		}
	}
	got, want := a.StopProfile(), NewProfile("l1d.data", 128, events)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recorded profile (%d bytes, %d skip points, %d shapes) differs from NewProfile's (%d, %d, %d)",
			len(got.data), len(got.skip), len(got.shapes), len(want.data), len(want.skip), len(want.shapes))
	}
	if got.EventCount() != len(order) {
		t.Fatalf("EventCount = %d, want %d", got.EventCount(), len(order))
	}
}

// Recording costs memory in proportion to what it encodes, not to how
// many events it saw: the bytes allocated between StartProfile and the
// returned profile stay within a small multiple of the profile's size
// plus one chunk. A recorder that buffered every event until
// StopProfile (24 bytes each, against about two encoded) fails this.
func TestProfileRecorderMemoryGrowsWithEncodedSize(t *testing.T) {
	const (
		entries = 16
		n       = 1 << 20
		c       = 6 // the per-entry streams double as they grow, then one copy out
	)
	a := New("rf.int", entries, 128)
	clk := &fakeClock{}
	runtime.GC()
	runtime.GC() // nothing left over from earlier tests in a pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a.StartProfile(clk.now)
	for i := 0; i < n; i++ {
		clk.c++
		if i%4 == 0 {
			a.WriteWord(i%entries, (i/entries)%2, uint64(i))
		} else {
			a.ReadWord(i%entries, (i/entries)%2)
		}
	}
	p := a.StopProfile()
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	chunk := uint64(profChunk) * uint64(unsafe.Sizeof(flatEvent{}))
	limit := c*uint64(p.SizeBytes()) + chunk
	t.Logf("%d events: %d bytes allocated, profile %d bytes (%.2f B/event), limit %d", n, alloc, p.SizeBytes(),
		float64(p.SizeBytes())/n, limit)
	if p.EventCount() != n {
		t.Fatalf("EventCount = %d, want %d", p.EventCount(), n)
	}
	if alloc > limit {
		t.Fatalf("recording %d events allocated %d bytes, more than %d × the %d-byte profile + one %d-byte chunk",
			n, alloc, c, p.SizeBytes(), chunk)
	}
}
