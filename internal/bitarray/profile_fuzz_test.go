package bitarray

import (
	"math/rand"
	"testing"
)

// scanNextCovering is the obvious NextCovering over an event slice: the
// reference the compact encoding is checked against.
func scanNextCovering(evs []ProfileEvent, bit int, cycle uint64) (int, ProfileEvent, bool) {
	for i, ev := range evs {
		if ev.Cycle >= cycle && ev.Covers(bit) {
			return i, ev, true
		}
	}
	return 0, ProfileEvent{}, false
}

// checkAgainstScan encodes events and compares the iterator and
// NextCovering with the slice scan, querying around every event's cycle
// and the edges of its bit range.
func checkAgainstScan(t *testing.T, bitsPerEntry int, events [][]ProfileEvent) {
	t.Helper()
	p := NewProfile("fuzz", bitsPerEntry, events)
	total := 0
	for e, want := range events {
		total += len(want)
		got := entryEvents(p, e)
		if len(got) != len(want) {
			t.Fatalf("entry %d: iterator yields %d events, want %d", e, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("entry %d event %d = %+v, want %+v", e, i, got[i], want[i])
			}
		}
		cycles := []uint64{0, ^uint64(0)}
		bits := []int{0, bitsPerEntry - 1}
		for _, ev := range want {
			cycles = append(cycles, ev.Cycle-1, ev.Cycle, ev.Cycle+1)
			bits = append(bits, int(ev.FirstBit), int(ev.FirstBit)+int(ev.NBits)-1, int(ev.FirstBit)+int(ev.NBits))
		}
		if step := len(bits) / 12; step > 1 {
			// Every cycle edge is queried; a dozen of the bit edges keep
			// long fuzz inputs from going cubic.
			var few []int
			for i := 0; i < len(bits); i += step {
				few = append(few, bits[i])
			}
			bits = few
		}
		for _, c := range cycles {
			for _, b := range bits {
				gi, gev, gok := p.NextCovering(e, b, c)
				wi, wev, wok := scanNextCovering(want, b, c)
				if gi != wi || gev != wev || gok != wok {
					t.Fatalf("NextCovering(entry %d, bit %d, cycle %d) = %d %+v %v, scan says %d %+v %v",
						e, b, c, gi, gev, gok, wi, wev, wok)
				}
			}
		}
	}
	if p.EventCount() != total {
		t.Fatalf("EventCount = %d, want %d", p.EventCount(), total)
	}
	if _, _, ok := p.NextCovering(len(events), 0, 0); ok {
		t.Fatal("entry past the profile reported an event")
	}
}

// fuzzBits is the entry width of decoded fuzz streams: wide enough that
// first-bit × length × kind reaches far more than 256 distinct shapes.
const fuzzBits = 512

// decodeFuzzEvents reads four bytes per event: entry, cycle delta
// (class in the top two bits: small including 0 for a tie, ×2^8, ×2^26,
// ×2^33), first bit, and length with the kind in the top two bits.
func decodeFuzzEvents(data []byte) [][]ProfileEvent {
	const entries = 5
	events := make([][]ProfileEvent, entries)
	var last [entries]uint64
	for ; len(data) >= 4; data = data[4:] {
		e := int(data[0]) % entries
		delta := uint64(data[1] & 63)
		switch data[1] >> 6 {
		case 1:
			delta <<= 8
		case 2:
			delta <<= 26
		case 3:
			delta <<= 33
		}
		last[e] += delta
		events[e] = append(events[e], ProfileEvent{
			Cycle:    last[e],
			FirstBit: uint16(data[2]),
			NBits:    1 + uint16(data[3]&63),
			Kind:     AccessKind(data[3]>>6) % 3,
		})
	}
	return events
}

func FuzzProfileNextCovering(f *testing.F) {
	// The seed corpus is committed under testdata/fuzz/FuzzProfileNextCovering.
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096] // a thousand events cross every edge; longer inputs only slow the search
		}
		checkAgainstScan(t, fuzzBits, decodeFuzzEvents(data))
	})
}

// TestProfileEncodingProperties drives the same comparison over the
// shapes of stream the encoding has edges at.
func TestProfileEncodingProperties(t *testing.T) {
	run := func(n int, delta func(i int) uint64, shapeOf func(i int) (uint16, uint16, AccessKind)) []ProfileEvent {
		evs := make([]ProfileEvent, n)
		var c uint64
		for i := range evs {
			c += delta(i)
			fb, nb, k := shapeOf(i)
			evs[i] = ProfileEvent{Cycle: c, FirstBit: fb, NBits: nb, Kind: k}
		}
		return evs
	}
	word := func(i int) (uint16, uint16, AccessKind) { return uint16(i%4) * 64, 64, AccessKind(i % 3) }
	one := func(int) uint64 { return 1 }

	t.Run("block boundaries", func(t *testing.T) {
		for _, n := range []int{1, profBlock - 1, profBlock, profBlock + 1, 2*profBlock - 1, 2 * profBlock, 2*profBlock + 1} {
			checkAgainstScan(t, 256, [][]ProfileEvent{run(n, one, word), nil})
		}
	})
	t.Run("ties across a block boundary", func(t *testing.T) {
		// Events 60..69 share one cycle; the query at that cycle must
		// return the first of them in execution order, which sits in the
		// block before the boundary.
		tied := func(i int) uint64 {
			if i > 60 && i < 70 {
				return 0
			}
			return 3
		}
		checkAgainstScan(t, 256, [][]ProfileEvent{run(3*profBlock, tied, word)})
	})
	t.Run("cycle zero and empty entries", func(t *testing.T) {
		zero := func(i int) uint64 { return uint64(i / 3) }
		checkAgainstScan(t, 256, [][]ProfileEvent{nil, run(10, zero, word), {}, run(1, func(int) uint64 { return 0 }, word)})
	})
	t.Run("cycles above 2^32", func(t *testing.T) {
		big := func(i int) uint64 { return 1<<33 + uint64(i) }
		checkAgainstScan(t, 256, [][]ProfileEvent{run(profBlock+5, big, word)})
	})
	t.Run("more than 256 shapes", func(t *testing.T) {
		// 600 distinct shapes: codes past 127 take two bytes, past 255
		// still decode — the code is a varint, not a byte.
		many := func(i int) (uint16, uint16, AccessKind) { return uint16(i % 200), 1 + uint16(i%3), AccessKind(i % 3) }
		evs := run(600, one, many)
		checkAgainstScan(t, 256, [][]ProfileEvent{evs})
		if p := NewProfile("x", 256, [][]ProfileEvent{evs}); len(p.shapes) <= 256 {
			t.Fatalf("stream has %d shapes, want more than 256", len(p.shapes))
		}
	})
	t.Run("random streams", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for round := 0; round < 50; round++ {
			data := make([]byte, 4*rng.Intn(400))
			rng.Read(data)
			checkAgainstScan(t, fuzzBits, decodeFuzzEvents(data))
		}
	})
}

// TestProfileRecordedMatchesConstructed pins that StopProfile and
// NewProfile are one encoder: the same accesses give the same bytes.
func TestProfileRecordedMatchesConstructed(t *testing.T) {
	a := New("rf", 3, 128)
	clk := &fakeClock{}
	a.StartProfile(clk.now)
	want := make([][]ProfileEvent, 3)
	for i := 0; i < 3*profBlock; i++ {
		clk.c += uint64(i % 3)
		e, w := i%3, i%2
		if i%5 == 0 {
			a.WriteWord(e, w, uint64(i))
			want[e] = append(want[e], ProfileEvent{Cycle: clk.c, FirstBit: uint16(w * 64), NBits: 64, Kind: AccessWrite})
		} else {
			a.ReadWord(e, w)
			want[e] = append(want[e], ProfileEvent{Cycle: clk.c, FirstBit: uint16(w * 64), NBits: 64, Kind: AccessRead})
		}
	}
	got, built := a.StopProfile(), NewProfile("rf", 128, want)
	if string(got.data) != string(built.data) || len(got.skip) != len(built.skip) || got.EventCount() != built.EventCount() {
		t.Fatalf("recorded profile (%d bytes, %d skip points) differs from the constructed one (%d bytes, %d skip points)",
			len(got.data), len(got.skip), len(built.data), len(built.skip))
	}
	if got.SizeBytes() >= 16*got.EventCount() {
		t.Fatalf("profile of %d events retains %d bytes, no smaller than 16 B/event", got.EventCount(), got.SizeBytes())
	}
}
