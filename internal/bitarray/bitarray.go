// Package bitarray models hardware storage arrays at bit granularity.
//
// Every microarchitectural structure that holds state in the simulators —
// register files, cache tag/valid/data arrays, load/store queues, issue
// queues, reorder buffers, branch target buffers, TLBs — is built on
// Array. An Array is a grid of entries × bits-per-entry storage cells that
// supports ordinary word/byte access plus fault arming: single bits can be
// flipped (transient faults) or forced to a value for a window of cycles
// (intermittent faults) or forever (permanent faults).
//
// Arrays also observe accesses to the faulty location so that an injection
// campaign can stop a run early when the outcome is already decided: a
// transient fault whose bit is overwritten before it is ever read is
// guaranteed masked (optimization (ii) of the paper, §III.B), and a fault
// injected into an invalid/unused entry is likewise guaranteed masked
// (optimization (i)).
package bitarray

import (
	"encoding/binary"
	"fmt"
)

// Status describes the lifecycle of an armed fault inside an Array.
type Status uint8

const (
	// StatusNone means no fault is armed.
	StatusNone Status = iota
	// StatusArmed means a fault is armed but its start cycle has not
	// been reached yet.
	StatusArmed
	// StatusLive means the fault has been applied and no read has
	// touched the faulty bit yet.
	StatusLive
	// StatusConsumed means at least one read has observed the faulty
	// location after the fault was applied; the outcome now depends on
	// program behaviour and the run must execute to its end.
	StatusConsumed
	// StatusOverwritten means a write fully covered the flipped bit
	// before any read observed it; a transient fault in this state is
	// guaranteed masked and the run may stop early.
	StatusOverwritten
	// StatusSkippedInvalid means the fault targeted an entry that was
	// invalid/unused at injection time; guaranteed masked.
	StatusSkippedInvalid
)

// String returns the reliability-report name of the status.
func (s Status) String() string {
	switch s {
	case StatusNone:
		return "none"
	case StatusArmed:
		return "armed"
	case StatusLive:
		return "live"
	case StatusConsumed:
		return "consumed"
	case StatusOverwritten:
		return "overwritten"
	case StatusSkippedInvalid:
		return "skipped-invalid"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// FaultKind selects one of the fault models of Table III of the paper.
type FaultKind uint8

const (
	// Transient flips the bit once at the start cycle.
	Transient FaultKind = iota
	// Intermittent forces the bit to StuckVal from the start cycle for
	// Duration cycles.
	Intermittent
	// Permanent forces the bit to StuckVal from the start cycle to the
	// end of the simulation.
	Permanent
)

// String returns the fault-model name used in mask repositories.
func (k FaultKind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Intermittent:
		return "intermittent"
	case Permanent:
		return "permanent"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// Fault describes a single-bit fault armed on an Array.
type Fault struct {
	Kind     FaultKind
	Entry    int    // target entry index
	Bit      int    // bit position within the entry (0 = LSB of byte 0)
	StuckVal uint8  // 0 or 1; used by Intermittent and Permanent
	Start    uint64 // activation cycle
	Duration uint64 // active window in cycles; used by Intermittent
}

// faultState is the live tracking attached to an Array once a fault is
// armed on it.
type faultState struct {
	f      Fault
	status Status
	// active reports whether a stuck-at window is currently forcing the
	// bit (intermittent within window, permanent after start).
	active bool
	// observed records the first read that touched the faulty location
	// after injection, and the Tick cycle it happened at.
	observed bool
	obsCycle uint64
	// touches counts every read that consumed the faulty location and
	// lastTouch stamps the latest one — the corruption footprint over
	// time the divergence recorder reports. Both are bumped only inside
	// the already-matched observation branch, so the fast path and the
	// unmatched slow path pay nothing for them.
	touches   uint64
	lastTouch uint64
}

// ValidFunc reports whether an entry currently holds live (allocated,
// valid) state. Structures attach one so that the injector can apply the
// invalid-entry early stop.
type ValidFunc func(entry int) bool

// Array is a faultable storage array of entries × bitsPerEntry bits.
// The zero value is not usable; use New.
type Array struct {
	name         string
	entries      int
	bitsPerEntry int
	wordsPerEnt  int
	data         []uint64 // entries * wordsPerEnt words, little-endian bit order
	valid        ValidFunc
	faults       []*faultState
	// needObs caches whether any armed fault can still interact with an
	// access: a live transient (a read consumes it, a covering write
	// masks it) or a stuck-at fault inside its forcing window. It is the
	// fast-path gate of the Read*/Write* accessors — the innermost loop
	// of every simulation — so golden runs, runs whose fault has settled
	// (consumed, overwritten, skipped) and runs whose intermittent
	// window has expired skip the observation bookkeeping entirely.
	needObs bool

	// Access counters; cheap and useful for the statistics module.
	reads  uint64
	writes uint64
	// Observation slow-path counters: accesses that ran an observe
	// function because needObs was up. The fast-path hit count the
	// telemetry layer reports is (reads+writes) - (obsReads+obsWrites);
	// incrementing only on the slow path keeps the fast path untouched.
	obsReads  uint64
	obsWrites uint64
	// tickCycle is the cycle of the latest Tick, used to stamp the
	// first-observation cycle of a consumed fault.
	tickCycle uint64

	// prof, when non-nil, records every access into a liveness profile
	// (see profile.go). It is nil outside golden-run profiling, so the
	// accessors pay one predictable branch for it.
	prof *profiler
}

// New returns an Array named name with entries entries of bitsPerEntry
// bits each. It panics if the geometry is not positive, since array
// geometry is fixed at configuration time and a bad geometry is a
// programming error.
func New(name string, entries, bitsPerEntry int) *Array {
	if entries <= 0 || bitsPerEntry <= 0 {
		panic(fmt.Sprintf("bitarray.New(%q): bad geometry %d×%d", name, entries, bitsPerEntry))
	}
	w := (bitsPerEntry + 63) / 64
	return &Array{
		name:         name,
		entries:      entries,
		bitsPerEntry: bitsPerEntry,
		wordsPerEnt:  w,
		data:         takeWords(entries * w),
	}
}

// Name returns the structure name the array was created with.
func (a *Array) Name() string { return a.name }

// Entries returns the number of entries.
func (a *Array) Entries() int { return a.entries }

// BitsPerEntry returns the number of bits in each entry.
func (a *Array) BitsPerEntry() int { return a.bitsPerEntry }

// TotalBits returns the total number of storage bits, the population size
// used by statistical fault sampling.
func (a *Array) TotalBits() int { return a.entries * a.bitsPerEntry }

// Reads returns the number of read accesses performed so far.
func (a *Array) Reads() uint64 { return a.reads }

// Writes returns the number of write accesses performed so far.
func (a *Array) Writes() uint64 { return a.writes }

// ObservedReads returns the reads that took the observation slow path;
// Reads() - ObservedReads() is the fast-path read hit count.
func (a *Array) ObservedReads() uint64 { return a.obsReads }

// ObservedWrites returns the writes that took the observation slow path.
func (a *Array) ObservedWrites() uint64 { return a.obsWrites }

// FirstObservation returns the cycle of the earliest read that consumed
// any armed fault's location after injection, and whether one happened.
func (a *Array) FirstObservation() (uint64, bool) {
	min, ok := ^uint64(0), false
	for _, fs := range a.faults {
		if fs.observed && fs.obsCycle < min {
			min, ok = fs.obsCycle, true
		}
	}
	if !ok {
		return 0, false
	}
	return min, true
}

// FaultTouches returns the total number of reads that consumed any
// armed fault's location and the Tick cycle of the latest one — the
// corruption footprint the divergence recorder reports.
func (a *Array) FaultTouches() (n, last uint64) {
	for _, fs := range a.faults {
		n += fs.touches
		if fs.lastTouch > last {
			last = fs.lastTouch
		}
	}
	return n, last
}

// SetValidFunc attaches a validity probe used by the invalid-entry early
// stop. A nil probe means every entry is considered valid.
func (a *Array) SetValidFunc(f ValidFunc) { a.valid = f }

// EntryValid reports whether the entry currently holds live state.
func (a *Array) EntryValid(entry int) bool {
	if a.valid == nil {
		return true
	}
	return a.valid(entry)
}

// checkEntry is kept inlinable (the formatting panic lives in its own
// function): it runs on every access of every array, so the bounds
// check must cost a compare, not a call.
func (a *Array) checkEntry(entry int) {
	if entry < 0 || entry >= a.entries {
		a.entryPanic(entry)
	}
}

//go:noinline
func (a *Array) entryPanic(entry int) {
	panic(fmt.Sprintf("bitarray %q: entry %d out of range [0,%d)", a.name, entry, a.entries))
}

// ---- Plain storage access -------------------------------------------------

// ReadWord reads the 64-bit word at word index word of entry. Bits beyond
// bitsPerEntry read as zero. The access is observed against any live
// fault.
func (a *Array) ReadWord(entry, word int) uint64 {
	a.checkEntry(entry)
	a.reads++
	if a.prof != nil {
		a.profRecord(AccessRead, entry, word*64, 64)
	}
	v := a.data[entry*a.wordsPerEnt+word]
	if a.needObs {
		v = a.observeRead(entry, word*64, 64, v)
	}
	return v
}

// WriteWord writes the 64-bit word at word index word of entry.
func (a *Array) WriteWord(entry, word int, v uint64) {
	a.checkEntry(entry)
	a.writes++
	if a.prof != nil {
		a.profRecord(AccessWrite, entry, word*64, 64)
	}
	if a.needObs {
		v = a.observeWrite(entry, word*64, 64, v)
	}
	a.data[entry*a.wordsPerEnt+word] = v
}

// ReadWordPair reads words 0 and 1 of entry — the access shape of
// queue-like arrays whose entries pack into two words. It is
// semantically exactly two ReadWord calls (same counters, same profile
// events in the same order, same per-word fault observation) with the
// per-access overhead paid once; issue-stage scans are hot enough for
// the difference to show on whole-campaign throughput.
func (a *Array) ReadWordPair(entry int) (w0, w1 uint64) {
	a.checkEntry(entry)
	a.reads += 2
	if a.prof != nil {
		a.profRecord(AccessRead, entry, 0, 64)
		a.profRecord(AccessRead, entry, 64, 64)
	}
	base := entry * a.wordsPerEnt
	w0 = a.data[base]
	w1 = a.data[base+1]
	if a.needObs {
		w0 = a.observeRead(entry, 0, 64, w0)
		w1 = a.observeRead(entry, 64, 64, w1)
	}
	return w0, w1
}

// WriteWordPair writes words 0 and 1 of entry: exactly two WriteWord
// calls (same counters, same profile events in the same order, same
// per-word fault observation) with the per-access overhead paid once —
// ReadWordPair's counterpart for the issue queue's allocations.
func (a *Array) WriteWordPair(entry int, w0, w1 uint64) {
	a.checkEntry(entry)
	a.writes += 2
	if a.prof != nil {
		a.profRecord(AccessWrite, entry, 0, 64)
		a.profRecord(AccessWrite, entry, 64, 64)
	}
	if a.needObs {
		w0 = a.observeWrite(entry, 0, 64, w0)
	}
	base := entry * a.wordsPerEnt
	a.data[base] = w0
	if a.needObs {
		w1 = a.observeWrite(entry, 64, 64, w1)
	}
	a.data[base+1] = w1
}

// Quiet reports whether no fault is attached and no profile is
// recording. A read of a quiet array can do nothing but return the
// stored word and bump the read counter, so an owner that keeps its
// own copy of what it wrote may serve the read from that copy and
// account it with CountReads. Faults stay attached until the run ends
// (Disarm is for tests) and checkpoints are taken from fault-free
// machines, so while the array is quiet its storage is exactly what the
// owner wrote or restored.
func (a *Array) Quiet() bool { return len(a.faults) == 0 && a.prof == nil }

// CountReads accounts n word reads that the owner served from its own
// copy, or through Stored, while the array was Quiet.
func (a *Array) CountReads(n int) { a.reads += uint64(n) }

// Stored returns word word of entry as it is stored, without an access:
// nothing is counted, profiled or observed. On a Quiet array that is all
// ReadWord would do besides counting, so an owner may search its storage
// through Stored and account the words it looked at with CountReads.
func (a *Array) Stored(entry, word int) uint64 { return a.data[entry*a.wordsPerEnt+word] }

// HoldsBytes reports whether the bytes stored at byte offset off of
// entry equal ref. It is not an access (see Peek).
func (a *Array) HoldsBytes(entry, off int, ref []byte) bool {
	a.checkEntry(entry)
	words := a.data[entry*a.wordsPerEnt : (entry+1)*a.wordsPerEnt]
	byteAt := func(at int) byte { return byte(words[at>>3] >> (uint(at&7) * 8)) }
	i := 0
	for ; i < len(ref) && (off+i)&7 != 0; i++ {
		if byteAt(off+i) != ref[i] {
			return false
		}
	}
	for ; len(ref)-i >= 8; i += 8 {
		if words[(off+i)>>3] != binary.LittleEndian.Uint64(ref[i:]) {
			return false
		}
	}
	for ; i < len(ref); i++ {
		if byteAt(off+i) != ref[i] {
			return false
		}
	}
	return true
}

// ReadUint64 reads word 0 of entry; convenience for register-file-like
// arrays whose entries are at most 64 bits wide.
func (a *Array) ReadUint64(entry int) uint64 { return a.ReadWord(entry, 0) }

// WriteUint64 writes word 0 of entry.
func (a *Array) WriteUint64(entry int, v uint64) { a.WriteWord(entry, 0, v) }

// ReadBytes fills dst with len(dst) bytes starting at byte offset off of
// entry. It is used by cache-line-shaped arrays.
func (a *Array) ReadBytes(entry, off int, dst []byte) {
	a.checkEntry(entry)
	a.reads++
	if a.prof != nil {
		a.profRecord(AccessRead, entry, off*8, len(dst)*8)
	}
	loadBytes(a.data[entry*a.wordsPerEnt:], off, dst)
	if a.needObs {
		a.observeReadBytes(entry, off, len(dst), dst)
	}
}

// WriteBytes stores src at byte offset off of entry.
func (a *Array) WriteBytes(entry, off int, src []byte) {
	a.checkEntry(entry)
	a.writes++
	if a.prof != nil {
		a.profRecord(AccessWrite, entry, off*8, len(src)*8)
	}
	if a.needObs {
		src = a.observeWriteBytes(entry, off, src)
	}
	storeBytes(a.data[entry*a.wordsPerEnt:], off, src)
}

// loadBytes copies len(dst) bytes out of the little-endian words,
// starting at byte offset off. Cache lines move through here on every
// fetch and every data access, so whole words go as words; only the
// unaligned head and the tail go byte by byte. The access is one event
// to the profile and to fault observation whatever the width of the
// copy — both are the caller's, around this.
func loadBytes(words []uint64, off int, dst []byte) {
	wi, i := off>>3, 0
	if sh := uint(off&7) * 8; sh != 0 && len(dst) > 0 {
		for w := words[wi] >> sh; sh < 64 && i < len(dst); sh += 8 {
			dst[i] = byte(w)
			w >>= 8
			i++
		}
		wi++
	}
	for ; len(dst)-i >= 8; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], words[wi])
		wi++
	}
	if i < len(dst) {
		for w := words[wi]; i < len(dst); i++ {
			dst[i] = byte(w)
			w >>= 8
		}
	}
}

// storeBytes is loadBytes's inverse: src into the words at byte offset
// off, leaving every other byte of a partly covered word as it was.
func storeBytes(words []uint64, off int, src []byte) {
	wi, i := off>>3, 0
	if sh := uint(off&7) * 8; sh != 0 {
		for ; sh < 64 && i < len(src); sh += 8 {
			words[wi] = words[wi]&^(0xff<<sh) | uint64(src[i])<<sh
			i++
		}
		wi++
	}
	for ; len(src)-i >= 8; i += 8 {
		words[wi] = binary.LittleEndian.Uint64(src[i:])
		wi++
	}
	for sh := uint(0); i < len(src); sh += 8 {
		words[wi] = words[wi]&^(0xff<<sh) | uint64(src[i])<<sh
		i++
	}
}

// ReadBit reads a single bit of entry. Bit 0 is the LSB of byte 0.
func (a *Array) ReadBit(entry, bit int) uint8 {
	w := a.ReadWord(entry, bit/64)
	return uint8(w>>uint(bit%64)) & 1
}

// WriteBit writes a single bit of entry.
func (a *Array) WriteBit(entry, bit int, v uint8) {
	word := bit / 64
	a.checkEntry(entry)
	a.writes++
	if a.prof != nil {
		// A single-bit write observes (and so covers) its whole word,
		// matching the observeWrite call below.
		a.profRecord(AccessWrite, entry, word*64, 64)
	}
	idx := entry*a.wordsPerEnt + word
	cur := a.data[idx]
	mask := uint64(1) << uint(bit%64)
	nv := cur &^ mask
	if v != 0 {
		nv |= mask
	}
	if a.needObs {
		nv = a.observeWrite(entry, word*64, 64, nv)
	}
	a.data[idx] = nv
}

// rawFlip flips a stored bit without access accounting; used when the
// injector applies a transient fault.
func (a *Array) rawFlip(entry, bit int) {
	a.data[entry*a.wordsPerEnt+bit/64] ^= 1 << uint(bit%64)
}

// rawBit returns the stored bit without access accounting.
func (a *Array) rawBit(entry, bit int) uint8 {
	return uint8(a.data[entry*a.wordsPerEnt+bit/64]>>uint(bit%64)) & 1
}

// rawSet stores a bit without access accounting.
func (a *Array) rawSet(entry, bit int, v uint8) {
	idx := entry*a.wordsPerEnt + bit/64
	mask := uint64(1) << uint(bit%64)
	if v != 0 {
		a.data[idx] |= mask
	} else {
		a.data[idx] &^= mask
	}
}

// Reset zeroes all storage and clears access counters. Any armed fault is
// kept armed (Reset is used between the golden warm-up and the faulty run
// only by tests; campaigns build fresh simulators instead).
func (a *Array) Reset() {
	for i := range a.data {
		a.data[i] = 0
	}
	a.reads, a.writes = 0, 0
	a.obsReads, a.obsWrites = 0, 0
}

// Snapshot returns a copy of the raw storage, for checkpointing.
func (a *Array) Snapshot() []uint64 {
	s := make([]uint64, len(a.data))
	copy(s, a.data)
	return s
}

// RestoreSnapshot restores raw storage from a Snapshot copy. It panics if
// the snapshot does not match the array geometry.
func (a *Array) RestoreSnapshot(s []uint64) {
	if len(s) != len(a.data) {
		panic(fmt.Sprintf("bitarray %q: snapshot size %d != %d", a.name, len(s), len(a.data)))
	}
	copy(a.data, s)
}

// ---- Fault arming and observation ------------------------------------------

// Arm attaches fault f to the array. Several faults may be armed on one
// array (multi-bit upsets); each is tracked independently. A fault does
// not affect storage until Tick reaches its start cycle.
func (a *Array) Arm(f Fault) {
	if f.Entry < 0 || f.Entry >= a.entries || f.Bit < 0 || f.Bit >= a.bitsPerEntry {
		panic(fmt.Sprintf("bitarray %q: fault target (%d,%d) out of range %d×%d",
			a.name, f.Entry, f.Bit, a.entries, a.bitsPerEntry))
	}
	a.faults = append(a.faults, &faultState{f: f, status: StatusArmed})
	// Conservatively observe until the first Tick settles the state; an
	// armed-but-unapplied fault is a no-op in the observe functions, so
	// this exactly matches the pre-fast-path behaviour.
	a.needObs = true
}

// Disarm removes every armed fault.
func (a *Array) Disarm() {
	a.faults = nil
	a.needObs = false
}

// needsObs reports whether the fault can still interact with an access:
// a live transient waits for its consuming read or masking write, and a
// stuck-at fault forces the cell only while its window is active. A
// consumed/overwritten/skipped transient and an expired intermittent are
// inert — every observe function is a no-op on them.
func (fs *faultState) needsObs() bool {
	if fs.f.Kind == Transient {
		return fs.status == StatusLive
	}
	return fs.active
}

// updateObs recomputes the fast-path gate after a fault state change.
func (a *Array) updateObs() {
	for _, fs := range a.faults {
		if fs.needsObs() {
			a.needObs = true
			return
		}
	}
	a.needObs = false
}

// FaultStatus aggregates the status of the armed faults, for the
// early-stop decision: a run may stop only when every fault is provably
// masked, so the aggregate reports a live or consumed fault whenever one
// exists, and a masked status only when all faults settled masked.
func (a *Array) FaultStatus() Status {
	if len(a.faults) == 0 {
		return StatusNone
	}
	agg := StatusNone
	for _, fs := range a.faults {
		switch fs.status {
		case StatusLive:
			return StatusLive
		case StatusConsumed:
			agg = StatusConsumed
		case StatusArmed:
			if agg != StatusConsumed {
				agg = StatusArmed
			}
		case StatusOverwritten, StatusSkippedInvalid:
			if agg == StatusNone {
				agg = fs.status
			}
		}
	}
	return agg
}

// ArmedFault returns the first armed fault and whether any is armed.
func (a *Array) ArmedFault() (Fault, bool) {
	if len(a.faults) == 0 {
		return Fault{}, false
	}
	return a.faults[0].f, true
}

// FaultCount and FaultAt enumerate the armed faults in arming order
// without allocating: the detail window's exit rule walks them on every
// cycle it is evaluated.
func (a *Array) FaultCount() int { return len(a.faults) }

// FaultAt returns the i-th armed fault and whether a read has consumed
// it.
func (a *Array) FaultAt(i int) (f Fault, consumed bool) {
	fs := a.faults[i]
	return fs.f, fs.status == StatusConsumed
}

// FaultOn reports whether any armed fault targets entry.
func (a *Array) FaultOn(entry int) bool {
	for _, fs := range a.faults {
		if fs.f.Entry == entry {
			return true
		}
	}
	return false
}

// Peek returns the stored words of entry as a read-only view. It is not
// an access: no counter moves, nothing is profiled and no armed fault
// observes it — the view is for code outside the simulated machine (the
// detail window's exit rule) that must look without consuming a fault.
func (a *Array) Peek(entry int) []uint64 {
	a.checkEntry(entry)
	return a.data[entry*a.wordsPerEnt : (entry+1)*a.wordsPerEnt : (entry+1)*a.wordsPerEnt]
}

// FaultsApplied reports whether the fault machinery is done *changing*
// this array: every armed fault has had its flip applied (or was skipped
// on an invalid entry) and no stuck-at window is still forcing the bit.
// An armed-but-unapplied fault and an active intermittent or permanent
// fault keep the array unapplied — the cell's future content still
// depends on the fault machinery, so a cycle-accurate run may not leave
// the detail window yet. A live-but-unread transient does NOT block:
// once the flip is in the cell, its effect is ordinary (possibly
// corrupt) stored state, which an architectural capture of a drained
// machine carries over exactly — residency safety of cache and TLB
// cells is the caller's separate concern (cache.Hierarchy.CaptureSafe).
func (a *Array) FaultsApplied() bool {
	for _, fs := range a.faults {
		if fs.status == StatusArmed || fs.active {
			return false
		}
	}
	return true
}

// Tick advances every fault's state machine to cycle. The simulator core
// calls it once per cycle before doing any work for that cycle. It
// returns the aggregate status so the campaign controller can early-stop.
func (a *Array) Tick(cycle uint64) Status {
	if len(a.faults) == 0 {
		return StatusNone
	}
	a.tickCycle = cycle
	for _, fs := range a.faults {
		switch fs.status {
		case StatusArmed:
			if cycle >= fs.f.Start {
				a.apply(fs)
			}
		case StatusLive, StatusConsumed:
			if fs.f.Kind == Intermittent && fs.active && cycle >= fs.f.Start+fs.f.Duration {
				fs.active = false
			}
		}
	}
	a.updateObs()
	return a.FaultStatus()
}

// apply performs the initial injection at the start cycle.
func (a *Array) apply(fs *faultState) {
	if !a.EntryValid(fs.f.Entry) && fs.f.Kind == Transient {
		fs.status = StatusSkippedInvalid
		return
	}
	switch fs.f.Kind {
	case Transient:
		a.rawFlip(fs.f.Entry, fs.f.Bit)
		fs.status = StatusLive
	case Intermittent, Permanent:
		// The cell is forced to the stuck value for the window; a
		// write during the window cannot change the cell.
		a.rawSet(fs.f.Entry, fs.f.Bit, fs.f.StuckVal)
		fs.active = true
		fs.status = StatusLive
	}
}

// stuckActive reports whether a stuck-at window currently forces the bit.
func (fs *faultState) stuckActive() bool {
	return fs.active && (fs.f.Kind == Intermittent || fs.f.Kind == Permanent)
}

// observeRead is called on every word read when faults are armed. It
// applies stuck-at forcing and records read consumption.
func (a *Array) observeRead(entry, firstBit, nbits int, v uint64) uint64 {
	a.obsReads++
	changed := false
	for _, fs := range a.faults {
		if fs.status != StatusLive && fs.status != StatusConsumed {
			continue
		}
		if entry != fs.f.Entry || fs.f.Bit < firstBit || fs.f.Bit >= firstBit+nbits {
			continue
		}
		if fs.stuckActive() {
			mask := uint64(1) << uint(fs.f.Bit-firstBit)
			if fs.f.StuckVal != 0 {
				v |= mask
			} else {
				v &^= mask
			}
		}
		changed = changed || fs.status != StatusConsumed
		if !fs.observed {
			fs.observed, fs.obsCycle = true, a.tickCycle
		}
		fs.touches++
		fs.lastTouch = a.tickCycle
		fs.status = StatusConsumed
	}
	if changed {
		a.updateObs()
	}
	return v
}

// observeWrite is called on every word write when faults are armed. For a
// live transient fault a covering write that lands before any read proves
// masking. For an active stuck-at fault the cell refuses the new bit.
func (a *Array) observeWrite(entry, firstBit, nbits int, v uint64) uint64 {
	a.obsWrites++
	changed := false
	for _, fs := range a.faults {
		if entry != fs.f.Entry || fs.f.Bit < firstBit || fs.f.Bit >= firstBit+nbits {
			continue
		}
		if fs.stuckActive() {
			mask := uint64(1) << uint(fs.f.Bit-firstBit)
			if fs.f.StuckVal != 0 {
				v |= mask
			} else {
				v &^= mask
			}
			continue
		}
		if fs.status == StatusLive && fs.f.Kind == Transient {
			fs.status = StatusOverwritten
			changed = true
		}
	}
	if changed {
		a.updateObs()
	}
	return v
}

// observeReadBytes applies fault observation to a byte-range read result.
func (a *Array) observeReadBytes(entry, off, n int, dst []byte) {
	a.obsReads++
	first := off * 8
	changed := false
	for _, fs := range a.faults {
		if fs.status != StatusLive && fs.status != StatusConsumed {
			continue
		}
		if entry != fs.f.Entry || fs.f.Bit < first || fs.f.Bit >= first+n*8 {
			continue
		}
		if fs.stuckActive() {
			rel := fs.f.Bit - first
			mask := byte(1) << uint(rel%8)
			if fs.f.StuckVal != 0 {
				dst[rel/8] |= mask
			} else {
				dst[rel/8] &^= mask
			}
		}
		changed = changed || fs.status != StatusConsumed
		if !fs.observed {
			fs.observed, fs.obsCycle = true, a.tickCycle
		}
		fs.touches++
		fs.lastTouch = a.tickCycle
		fs.status = StatusConsumed
	}
	if changed {
		a.updateObs()
	}
}

// observeWriteBytes applies fault observation to a byte-range write. It
// returns the (possibly forced) bytes to store; it never modifies src in
// place.
func (a *Array) observeWriteBytes(entry, off int, src []byte) []byte {
	a.obsWrites++
	first := off * 8
	out := src
	changed := false
	for _, fs := range a.faults {
		if entry != fs.f.Entry || fs.f.Bit < first || fs.f.Bit >= first+len(src)*8 {
			continue
		}
		if fs.stuckActive() {
			if &out[0] == &src[0] {
				out = make([]byte, len(src))
				copy(out, src)
			}
			rel := fs.f.Bit - first
			mask := byte(1) << uint(rel%8)
			if fs.f.StuckVal != 0 {
				out[rel/8] |= mask
			} else {
				out[rel/8] &^= mask
			}
			continue
		}
		if fs.status == StatusLive && fs.f.Kind == Transient {
			fs.status = StatusOverwritten
			changed = true
		}
	}
	if changed {
		a.updateObs()
	}
	return out
}

// InvalidateObserve tells the array that entry was invalidated (its live
// state discarded) by the structure that owns it. A live transient fault
// in a discarded entry can never be read again, so it is equivalent to
// overwritten-before-read. On a quiet array there is nothing to tell,
// and the check stays inlinable: every commit and every flushed issue
// queue slot calls it.
func (a *Array) InvalidateObserve(entry int) {
	if a.Quiet() {
		return
	}
	a.invalidateObserve(entry)
}

func (a *Array) invalidateObserve(entry int) {
	if a.prof != nil {
		// Invalidation discards the entry's live state whatever the bit,
		// so the event covers the whole entry.
		a.profRecord(AccessEvict, entry, 0, a.bitsPerEntry)
	}
	changed := false
	for _, fs := range a.faults {
		if fs.status == StatusLive && fs.f.Kind == Transient && entry == fs.f.Entry {
			fs.status = StatusOverwritten
			changed = true
		}
	}
	if changed {
		a.updateObs()
	}
}
