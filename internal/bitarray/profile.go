package bitarray

import (
	"encoding/binary"
	"sort"
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
	enc := newProfEncoder(name, len(events), bitsPerEntry)
	for e, evs := range events {
		for _, ev := range evs {
			enc.add(e, ev.Cycle, ev.FirstBit, ev.NBits, ev.Kind)
		}
	}
	return enc.finish()
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

// profEncoder is the one encoder of liveness profiles: it folds events,
// in recording order, straight into per-entry varint streams, so the
// memory a profile costs while it is built grows with its encoded size
// rather than with its event count. Shape codes are assigned in order of
// first appearance; an entry's stream is its events' cycle deltas and
// shape codes, with a skip point every profBlock events. finish lays the
// streams out entry-major in one allocation per table.
type profEncoder struct {
	name         string
	bitsPerEntry int
	shapes       []shape
	codes        map[uint64]uint32 // packed shape → code
	ents         []entryStream
}

// entryStream is one entry's part of a profile being encoded. Skip
// offsets are relative to data until finish rebases them.
type entryStream struct {
	data []byte
	skip []skipPoint
	last uint64 // cycle of the entry's previous event
	n    int    // events so far
}

func newProfEncoder(name string, entries, bitsPerEntry int) *profEncoder {
	return &profEncoder{name: name, bitsPerEntry: bitsPerEntry, codes: make(map[uint64]uint32), ents: make([]entryStream, entries)}
}

// add encodes one event of entry; an entry's events arrive in recording
// order, which is the order the profile keeps.
func (enc *profEncoder) add(entry int, cycle uint64, firstBit, nbits uint16, kind AccessKind) {
	key := uint64(firstBit)<<32 | uint64(nbits)<<8 | uint64(kind)
	code, ok := enc.codes[key]
	if !ok {
		code = uint32(len(enc.shapes)) //nolint:gosec // far fewer shapes occur than 2^32
		enc.codes[key] = code
		enc.shapes = append(enc.shapes, shape{firstBit, nbits, kind})
	}
	s := &enc.ents[entry]
	if s.n%profBlock == 0 {
		s.skip = grow(s.skip, 1)
		s.skip = append(s.skip, skipPoint{base: s.last, off: len(s.data)})
	}
	s.data = grow(s.data, 2*binary.MaxVarintLen64)
	s.data = binary.AppendUvarint(s.data, cycle-s.last)
	s.data = binary.AppendUvarint(s.data, uint64(code))
	s.last = cycle
	s.n++
}

// grow returns s with room for n more elements, doubling its capacity
// when it has not: everything a stream allocates on its way to its
// final size stays below twice its final capacity (append's gentler
// growth of large slices would allocate several times over).
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	c := 2 * cap(s)
	if c < len(s)+n {
		c = len(s) + n
	}
	out := make([]T, len(s), c)
	copy(out, s)
	return out
}

// finish returns the profile: every entry's stream and skip points
// copied into one table each, entry-major, skip offsets rebased onto it.
func (enc *profEncoder) finish() *Profile {
	entries := len(enc.ents)
	p := &Profile{Name: enc.name, Entries: entries, BitsPerEntry: enc.bitsPerEntry, shapes: enc.shapes, spans: make([]entrySpan, entries+1)}
	for e, s := range enc.ents {
		p.events += s.n
		p.spans[e+1] = entrySpan{data: p.spans[e].data + len(s.data), skip: p.spans[e].skip + len(s.skip)}
	}
	p.data = make([]byte, p.spans[entries].data)
	p.skip = make([]skipPoint, p.spans[entries].skip)
	for e := range enc.ents {
		s := &enc.ents[e]
		sp := p.spans[e]
		copy(p.data[sp.data:], s.data)
		for j, k := range s.skip {
			p.skip[sp.skip+j] = skipPoint{base: k.base, off: sp.data + k.off}
		}
		*s = entryStream{} // the stream's garbage now, not the encoder's
	}
	return p
}

// profiler is the recording state attached to an Array while profiling
// is on. It exists only during fault-free golden replays, so it never
// coexists with hot injection runs; the accessors gate on a single nil
// check, keeping the disabled cost to one predictable branch. An access
// is appended to a small execution-order chunk, and a full chunk is
// folded into the encoder and reused: the simulator's hot loop only
// appends, and the encoder runs over a chunk that is still in cache.
type profiler struct {
	cycle func() uint64
	enc   *profEncoder
	cur   []flatEvent // chunk being filled, len < cap outside profRecord
}

// flatEvent is one recorded access before it is folded into the encoder.
type flatEvent struct {
	cycle           uint64
	entry           int32
	firstBit, nbits uint16
	kind            AccessKind
}

// profChunk is the event capacity of one recording chunk (96 KiB).
const profChunk = 1 << 12

// StartProfile turns on liveness profiling, sampling the current cycle
// from cycle on every access. Profiling records every read, write and
// eviction per entry until StopProfile; it is meant for fault-free
// golden replays, not for injection runs.
func (a *Array) StartProfile(cycle func() uint64) { a.startProfile(cycle, profChunk) }

// startProfile is StartProfile with a chunk capacity of its own, which
// lets tests cross chunk boundaries every few events.
func (a *Array) startProfile(cycle func() uint64, chunk int) {
	a.prof = &profiler{
		cycle: cycle,
		enc:   newProfEncoder(a.name, a.entries, a.bitsPerEntry),
		cur:   make([]flatEvent, 0, chunk),
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
	p.fold()
	return p.enc.finish()
}

// fold encodes the chunk's events and empties it.
func (p *profiler) fold() {
	for _, r := range p.cur {
		p.enc.add(int(r.entry), r.cycle, r.firstBit, r.nbits, r.kind)
	}
	p.cur = p.cur[:0]
}

// profRecord appends one event for entry. Callers pass the same bit
// range the matching observe function would check.
func (a *Array) profRecord(kind AccessKind, entry, firstBit, nbits int) {
	p := a.prof
	if len(p.cur) == cap(p.cur) {
		p.fold()
	}
	p.cur = append(p.cur, flatEvent{
		cycle:    p.cycle(),
		entry:    int32(entry),     //nolint:gosec // entries is far below 2^31
		firstBit: uint16(firstBit), //nolint:gosec // bitsPerEntry is far below 64k
		nbits:    uint16(nbits),    //nolint:gosec // ranges are entry-bounded
		kind:     kind,
	})
}
