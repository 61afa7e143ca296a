package bitarray

import (
	"encoding/binary"
	"math/rand"
	"reflect"
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

// execEvent is one access in execution order: the order a recorder
// sees, across entries.
type execEvent struct {
	entry int
	ev    ProfileEvent
}

// decodeFuzzEvents reads four bytes per event: entry, cycle delta
// (class in the top two bits: small including 0 for a tie, ×2^8, ×2^26,
// ×2^33), first bit, and length with the kind in the top two bits. It
// returns the events per entry and in execution order.
func decodeFuzzEvents(data []byte) ([][]ProfileEvent, []execEvent) {
	const entries = 5
	events := make([][]ProfileEvent, entries)
	var order []execEvent
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
		ev := ProfileEvent{
			Cycle:    last[e],
			FirstBit: uint16(data[2]),
			NBits:    1 + uint16(data[3]&63),
			Kind:     AccessKind(data[3]>>6) % 3,
		}
		events[e] = append(events[e], ev)
		order = append(order, execEvent{e, ev})
	}
	return events, order
}

// batchEncode is the two-pass encoder profiles were built with before
// the recorder encoded as it went, kept as the reference both current
// paths must reproduce byte for byte: the first pass assigns shape codes
// in order of first appearance and sizes every entry's stream, the
// second writes the streams and skip points in place.
func batchEncode(name string, entries, bitsPerEntry int, order []execEvent) *Profile {
	p := &Profile{Name: name, Entries: entries, BitsPerEntry: bitsPerEntry, spans: make([]entrySpan, entries+1)}
	codes := make(map[shape]uint64)
	code := make([]uint64, len(order))
	last := make([]uint64, entries)
	count := make([]int, entries)
	for i, r := range order {
		sh := shape{r.ev.FirstBit, r.ev.NBits, r.ev.Kind}
		c, ok := codes[sh]
		if !ok {
			c = uint64(len(p.shapes))
			codes[sh] = c
			p.shapes = append(p.shapes, sh)
		}
		code[i] = c
		p.spans[r.entry+1].data += len(binary.AppendUvarint(nil, r.ev.Cycle-last[r.entry])) + len(binary.AppendUvarint(nil, c))
		last[r.entry] = r.ev.Cycle
		count[r.entry]++
	}
	for e, n := range count {
		p.events += n
		p.spans[e+1].data += p.spans[e].data
		p.spans[e+1].skip = p.spans[e].skip + (n+profBlock-1)/profBlock
	}
	p.data = make([]byte, p.spans[entries].data)
	p.skip = make([]skipPoint, p.spans[entries].skip)
	pos := make([]int, entries)
	for e := range pos {
		pos[e] = p.spans[e].data
		last[e], count[e] = 0, 0
	}
	for i, r := range order {
		e := r.entry
		if count[e]%profBlock == 0 {
			p.skip[p.spans[e].skip+count[e]/profBlock] = skipPoint{base: last[e], off: pos[e]}
		}
		pos[e] += binary.PutUvarint(p.data[pos[e]:], r.ev.Cycle-last[e])
		pos[e] += binary.PutUvarint(p.data[pos[e]:], code[i])
		last[e] = r.ev.Cycle
		count[e]++
	}
	return p
}

// record plays order through an array's recorder with a chunk of the
// given capacity and returns what StopProfile encodes.
func record(name string, entries, bitsPerEntry int, order []execEvent, chunk int) *Profile {
	a := New(name, entries, bitsPerEntry)
	clk := &fakeClock{}
	a.startProfile(clk.now, chunk)
	for _, r := range order {
		clk.c = r.ev.Cycle
		a.profRecord(r.ev.Kind, r.entry, int(r.ev.FirstBit), int(r.ev.NBits))
	}
	return a.StopProfile()
}

// entryMajor is order regrouped entry by entry — the order NewProfile
// reads its per-entry lists in.
func entryMajor(events [][]ProfileEvent) []execEvent {
	var out []execEvent
	for e, evs := range events {
		for _, ev := range evs {
			out = append(out, execEvent{e, ev})
		}
	}
	return out
}

// checkOneEncoder pins both ways into the encoder to the batch
// reference: the recorder over the execution order (its chunk folded
// every few events), and NewProfile over the per-entry lists.
func checkOneEncoder(t *testing.T, bitsPerEntry int, events [][]ProfileEvent, order []execEvent) {
	t.Helper()
	entries := len(events)
	for _, chunk := range []int{1, 7, profChunk} {
		if got, want := record("x", entries, bitsPerEntry, order, chunk), batchEncode("x", entries, bitsPerEntry, order); !reflect.DeepEqual(got, want) {
			t.Fatalf("recorder (chunk %d) encodes %d bytes, %d skip points, %d shapes; the batch encoder %d, %d, %d",
				chunk, len(got.data), len(got.skip), len(got.shapes), len(want.data), len(want.skip), len(want.shapes))
		}
	}
	if got, want := NewProfile("x", bitsPerEntry, events), batchEncode("x", entries, bitsPerEntry, entryMajor(events)); !reflect.DeepEqual(got, want) {
		t.Fatalf("NewProfile encodes %d bytes, %d skip points; the batch encoder %d, %d",
			len(got.data), len(got.skip), len(want.data), len(want.skip))
	}
}

func FuzzProfileNextCovering(f *testing.F) {
	// The seed corpus is committed under testdata/fuzz/FuzzProfileNextCovering.
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096] // a thousand events cross every edge; longer inputs only slow the search
		}
		events, order := decodeFuzzEvents(data)
		checkAgainstScan(t, fuzzBits, events)
		checkOneEncoder(t, fuzzBits, events, order)
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
			events, order := decodeFuzzEvents(data)
			checkAgainstScan(t, fuzzBits, events)
			checkOneEncoder(t, fuzzBits, events, order)
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
