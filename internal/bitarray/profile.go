package bitarray

import (
	"encoding/binary"
	"sort"
	"sync"
)

// AccessKind classifies one liveness-profile event.
type AccessKind uint8

const (
	// AccessRead is a read covering a bit range of an entry.
	AccessRead AccessKind = iota
	// AccessWrite is a write covering a bit range of an entry.
	AccessWrite
	// AccessEvict is an entry-wide invalidation (InvalidateObserve).
	AccessEvict
)

// String returns the profile-event name of the kind.
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessEvict:
		return "evict"
	default:
		return "unknown"
	}
}

// ProfileEvent is one access of one entry during a profiled fault-free
// run. The bit range mirrors exactly what the fault-observation slow
// path of the corresponding accessor would check against an armed fault:
// word accesses cover their whole 64-bit word (including single-bit
// writes, which go through the word path), byte-range accesses cover
// [off*8, off*8+len*8), and evictions cover the whole entry. Keeping the
// ranges identical to the runtime observation rules is what makes
// profile-based fault classification agree with simulation.
type ProfileEvent struct {
	// Cycle is the simulator cycle the access happened at. Events of one
	// entry are ordered by Cycle; ties keep execution order.
	Cycle uint64
	// FirstBit and NBits delimit the covered bit range of the entry.
	FirstBit uint16
	NBits    uint16
	// Kind is the access kind.
	Kind AccessKind
}

// Covers reports whether the event's bit range includes bit.
func (e ProfileEvent) Covers(bit int) bool {
	return int(e.FirstBit) <= bit && bit < int(e.FirstBit)+int(e.NBits)
}

// Profile is the liveness profile of one array over one fault-free run:
// per entry, the ordered accesses with their covered bit ranges. The
// pruning engine queries it to find the first access at or after a fault
// injection cycle that would touch the faulty bit.
//
// A golden replay logs millions of events per array and a campaign
// worker keeps the profiles of every row it serves, so the events are
// held compactly: an array is only ever accessed through a handful of
// distinct {bit range, kind} shapes (three on a register file, a few
// dozen on a cache data array), so an event is the varint delta of its
// cycle to the entry's previous event plus the varint code of its shape
// in a per-profile table — two to three bytes instead of sixteen. Every
// profBlock events of an entry a skip point records where the block
// starts and which cycle precedes it, which is all NextCovering needs
// to binary-search by cycle and to report per-entry event indices.
type Profile struct {
	// Name is the structure name of the profiled array.
	Name string
	// Entries and BitsPerEntry echo the array geometry.
	Entries      int
	BitsPerEntry int

	shapes []shape     // shape code → bit range and kind
	data   []byte      // the event streams of all entries, entry-major
	skip   []skipPoint // the skip points of all entries, entry-major
	// spans[e] is where entry e's stream and skip points start; their
	// ends are spans[e+1] (len(spans) == Entries+1).
	spans  []entrySpan
	events int
}

// shape is the part of an event that repeats: its bit range and kind.
type shape struct {
	firstBit, nbits uint16
	kind            AccessKind
}

// skipPoint starts one block of profBlock events of one entry.
type skipPoint struct {
	base uint64 // cycle of the event before the block; 0 at the entry's start
	off  int    // offset of the block's first event in Profile.data
}

type entrySpan struct{ data, skip int }

// profBlock is the number of events between two skip points: NextCovering
// decodes at most this many events before the one it was asked for.
const profBlock = 64

// NewProfile builds a profile from per-entry event lists, each in
// nondecreasing cycle order (ties in execution order) — the way tests
// and tools write a profile down. Recorded profiles come from
// Array.StopProfile, through the same encoder.
func NewProfile(name string, bitsPerEntry int, events [][]ProfileEvent) *Profile {
	var flat []flatEvent
	for e, evs := range events {
		for _, ev := range evs {
			flat = append(flat, flatEvent{
				cycle: ev.Cycle, entry: int32(e), //nolint:gosec // test-sized
				firstBit: ev.FirstBit, nbits: ev.NBits, kind: ev.Kind,
			})
		}
	}
	return encodeProfile(name, len(events), bitsPerEntry, [][]flatEvent{flat})
}

// EventIter walks the events of one entry in recorded order.
type EventIter struct {
	p        *Profile
	pos, end int
	cycle    uint64
}

// Events returns an iterator over entry's events; it is empty for an
// entry outside the profile.
func (p *Profile) Events(entry int) EventIter {
	if entry < 0 || entry >= p.Entries {
		return EventIter{p: p}
	}
	return EventIter{p: p, pos: p.spans[entry].data, end: p.spans[entry+1].data}
}

// Next returns the next event; ok is false once the entry is exhausted.
func (it *EventIter) Next() (ev ProfileEvent, ok bool) {
	if it.pos >= it.end {
		return ProfileEvent{}, false
	}
	it.cycle += it.uvarint()
	s := it.p.shapes[it.uvarint()]
	return ProfileEvent{Cycle: it.cycle, FirstBit: s.firstBit, NBits: s.nbits, Kind: s.kind}, true
}

func (it *EventIter) uvarint() uint64 {
	if b := it.p.data[it.pos]; b < 0x80 {
		it.pos++
		return uint64(b)
	}
	v, n := binary.Uvarint(it.p.data[it.pos:it.end])
	it.pos += n
	return v
}

// NextCovering returns the index and value of the first event of entry at
// or after cycle whose bit range covers bit. ok is false when no such
// event exists — the bit is never accessed again. The fault state machine
// ticks at the top of a cycle before any work, so an access in the
// injection cycle itself already sees the fault and counts.
func (p *Profile) NextCovering(entry, bit int, cycle uint64) (int, ProfileEvent, bool) {
	if entry < 0 || entry >= p.Entries {
		return 0, ProfileEvent{}, false
	}
	sk := p.skip[p.spans[entry].skip:p.spans[entry+1].skip]
	if len(sk) == 0 {
		return 0, ProfileEvent{}, false
	}
	// Every event before block b is at or before sk[b].base, so the search
	// starts in the last block whose base is still below cycle.
	b := sort.Search(len(sk), func(j int) bool { return sk[j].base >= cycle }) - 1
	if b < 0 {
		b = 0
	}
	it := EventIter{p: p, pos: sk[b].off, end: p.spans[entry+1].data, cycle: sk[b].base}
	for i := b * profBlock; ; i++ {
		ev, ok := it.Next()
		if !ok {
			return 0, ProfileEvent{}, false
		}
		if ev.Cycle >= cycle && ev.Covers(bit) {
			return i, ev, true
		}
	}
}

// EventCount returns the total number of recorded events.
func (p *Profile) EventCount() int { return p.events }

// SizeBytes estimates the heap the profile retains.
func (p *Profile) SizeBytes() int {
	return len(p.data) + 16*len(p.skip) + 16*len(p.spans) + 6*len(p.shapes)
}

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// encodeProfile turns execution-order recording chunks into a Profile
// in two passes and one allocation per table: the first sizes every
// entry's stream (and leaves each event's shape code in the chunk), the
// second writes the streams in place. Chunks are visited in recording
// order, so per-entry event order stays the execution order.
func encodeProfile(name string, entries, bitsPerEntry int, chunks [][]flatEvent) *Profile {
	p := &Profile{Name: name, Entries: entries, BitsPerEntry: bitsPerEntry, spans: make([]entrySpan, entries+1)}
	codes := make(map[uint64]uint32) // packed shape → code, in order of first appearance
	last := make([]uint64, entries)  // cycle of the entry's previous event
	count := make([]int, entries)
	for _, recs := range chunks {
		for i := range recs {
			r := &recs[i]
			key := uint64(r.firstBit)<<32 | uint64(r.nbits)<<8 | uint64(r.kind)
			code, ok := codes[key]
			if !ok {
				code = uint32(len(p.shapes)) //nolint:gosec // far fewer shapes occur than 2^32
				codes[key] = code
				p.shapes = append(p.shapes, shape{r.firstBit, r.nbits, r.kind})
			}
			r.code = code
			// spans[e+1] accumulates entry e's sizes until the prefix sum.
			p.spans[r.entry+1].data += uvarintLen(r.cycle-last[r.entry]) + uvarintLen(uint64(r.code))
			last[r.entry] = r.cycle
			count[r.entry]++
		}
	}
	for e, n := range count {
		p.events += n
		p.spans[e+1].data += p.spans[e].data
		p.spans[e+1].skip = p.spans[e].skip + (n+profBlock-1)/profBlock
	}
	p.data = make([]byte, p.spans[entries].data)
	p.skip = make([]skipPoint, p.spans[entries].skip)

	pos := make([]int, entries) // write offset into p.data
	for e := range pos {
		pos[e] = p.spans[e].data
		last[e], count[e] = 0, 0
	}
	for _, recs := range chunks {
		for _, r := range recs {
			e := r.entry
			if count[e]%profBlock == 0 {
				p.skip[p.spans[e].skip+count[e]/profBlock] = skipPoint{base: last[e], off: pos[e]}
			}
			w := pos[e]
			w += binary.PutUvarint(p.data[w:], r.cycle-last[e])
			w += binary.PutUvarint(p.data[w:], uint64(r.code))
			pos[e] = w
			last[e] = r.cycle
			count[e]++
		}
	}
	return p
}

// profiler is the recording state attached to an Array while profiling
// is on. It exists only during fault-free golden replays, so it never
// coexists with hot injection runs; the accessors gate on a single nil
// check, keeping the disabled cost to one predictable branch. Events go
// into fixed-size execution-order chunks — a full chunk is set aside
// and a fresh one started, so recording never copies what it already
// recorded (a golden replay logs millions of events per array; growing
// one flat slice spends more time in copies than in the recording) —
// and are encoded per entry only at StopProfile.
type profiler struct {
	cycle  func() uint64
	chunks [][]flatEvent // full chunks, in execution order
	cur    []flatEvent   // chunk being filled, len < cap outside profRecord
}

// flatEvent is one recorded access before per-entry encoding.
type flatEvent struct {
	cycle           uint64
	entry           int32
	firstBit, nbits uint16
	kind            AccessKind
	code            uint32 // shape code, filled in by encodeProfile (sits in the struct's padding)
}

// profChunk is the event capacity of one recording chunk (~1.5 MiB).
const profChunk = 1 << 16

// chunkPool recycles recording chunks across profiling sessions and
// arrays; a recycled chunk is re-sliced empty and overwritten by
// appends, so it needs no zeroing either.
var chunkPool sync.Pool

func newChunk() []flatEvent {
	if v := chunkPool.Get(); v != nil {
		return (*v.(*[]flatEvent))[:0]
	}
	return make([]flatEvent, 0, profChunk)
}

// StartProfile turns on liveness profiling, sampling the current cycle
// from cycle on every access. Profiling records every read, write and
// eviction per entry until StopProfile; it is meant for fault-free
// golden replays, not for injection runs.
func (a *Array) StartProfile(cycle func() uint64) {
	a.prof = &profiler{
		cycle: cycle,
		cur:   newChunk(),
	}
}

// StopProfile turns profiling off and returns the recorded profile, or
// nil when profiling was never started.
func (a *Array) StopProfile() *Profile {
	p := a.prof
	if p == nil {
		return nil
	}
	a.prof = nil
	all := append(p.chunks, p.cur)
	prof := encodeProfile(a.name, a.entries, a.bitsPerEntry, all)
	for i := range all {
		chunkPool.Put(&all[i])
	}
	p.chunks, p.cur = nil, nil
	return prof
}

// profRecord appends one event for entry. Callers pass the same bit
// range the matching observe function would check.
func (a *Array) profRecord(kind AccessKind, entry, firstBit, nbits int) {
	p := a.prof
	if len(p.cur) == cap(p.cur) {
		p.chunks = append(p.chunks, p.cur)
		p.cur = newChunk()
	}
	p.cur = append(p.cur, flatEvent{
		cycle:    p.cycle(),
		entry:    int32(entry),     //nolint:gosec // entries is far below 2^31
		firstBit: uint16(firstBit), //nolint:gosec // bitsPerEntry is far below 64k
		nbits:    uint16(nbits),    //nolint:gosec // ranges are entry-bounded
		kind:     kind,
	})
}
