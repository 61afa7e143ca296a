// Package mem models the main memory and physical address map of the
// simulated machine. Both simulators share this substrate: a flat RAM
// with a guard page at address zero, read-only text, user data/heap/stack
// below the kernel-reserved region, and the kernel region itself at the
// top — the layout that lets injected faults manifest as the paper's
// process-crash (bad user access) and system-crash (kernel corruption)
// outcomes.
package mem

import (
	"math/bits"
	"slices"
	"sync"
	"unsafe"
)

// Address map of the simulated machine.
const (
	// NullPageEnd is the end of the unmapped guard page at address 0;
	// any access below it is a page fault (null-pointer dereference).
	NullPageEnd uint64 = 0x1000
	// TextBase is where program text is loaded. Text is read-only:
	// stores to it raise protection faults.
	TextBase uint64 = 0x1000
	// StackTop is the initial stack pointer; the stack grows down.
	StackTop uint64 = 0x300000
	// KernelBase is the start of the kernel-reserved region. User-mode
	// accesses to it raise protection faults; a program counter landing
	// in it indicates wild control flow into the kernel, which the thin
	// kernel model treats as a panic (system crash).
	KernelBase uint64 = 0x300000
	// Size is the total physical memory size.
	Size uint64 = 0x400000
)

// Fault classifies the outcome of a memory access.
type Fault uint8

const (
	// FaultNone means the access succeeded.
	FaultNone Fault = iota
	// FaultUnmapped means the address range falls outside RAM or in
	// the null guard page.
	FaultUnmapped
	// FaultProt means the access violated protection: a store to text
	// or a user access to the kernel region.
	FaultProt
)

// String returns the fault name for logs.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultUnmapped:
		return "unmapped"
	case FaultProt:
		return "protection"
	default:
		return "unknown"
	}
}

// Paged-snapshot geometry: RAM is tracked in 4 KiB pages for the
// dirty-page checkpoint deltas.
const (
	// PageSize is the granularity of dirty tracking and snapshot sharing.
	PageSize uint64 = 4096
	numPages        = int(Size / PageSize)
	bmWords         = (numPages + 63) / 64
)

// Memory is the flat RAM of one simulated machine instance. It is not
// safe for concurrent use; campaigns give every worker its own instance.
type Memory struct {
	ram []byte
	// textEnd is the end of the read-only text segment.
	textEnd uint64

	reads  uint64
	writes uint64

	// dirty marks pages written since the last paged snapshot (or
	// restore); nonzero marks pages that have ever been written, so
	// all-zero pages never get copied or restored. lastSnap is the paged
	// snapshot the dirty bits are relative to — successive snapshots on
	// one machine share every clean page with it (copy-on-write), which
	// is what makes a checkpoint ladder cheap: each rung after the first
	// only copies the pages the run dirtied since the previous rung.
	dirty    [bmWords]uint64
	nonzero  [bmWords]uint64
	lastSnap *PagedSnapshot
}

// pool recycles Memory instances across machine boots. A released
// memory zeroes only the pages it ever wrote (nonzero is a conservative
// superset of written pages), so a recycled boot costs a handful of
// page clears instead of a full-RAM zeroing — campaigns boot three
// machines per windowed run, which makes the fresh-allocation memclr a
// measurable fraction of the schedule.
var pool sync.Pool

// New returns a zeroed memory, recycled from the boot pool when one is
// available.
func New() *Memory {
	if v := pool.Get(); v != nil {
		return v.(*Memory)
	}
	return &Memory{ram: make([]byte, Size)}
}

// Release resets m to the state of a fresh New and returns it to the
// boot pool. The caller guarantees the machine owning m is dead and
// drops every reference; using a memory after release corrupts an
// unrelated machine. Snapshots taken from m stay valid — they never
// alias the RAM.
func Release(m *Memory) {
	if m == nil {
		return
	}
	for p := 0; p < numPages; p++ {
		if bmBit(&m.nonzero, p) {
			off := uint64(p) * PageSize
			clear(m.ram[off : off+PageSize])
		}
	}
	for i := range m.dirty {
		m.dirty[i] = 0
		m.nonzero[i] = 0
	}
	m.lastSnap = nil
	m.textEnd = 0
	m.reads, m.writes = 0, 0
	pool.Put(m)
}

// SetTextEnd marks [TextBase, end) as read-only text. The loader calls it.
func (m *Memory) SetTextEnd(end uint64) { m.textEnd = end }

// Reads returns the number of read accesses.
func (m *Memory) Reads() uint64 { return m.reads }

// Writes returns the number of write accesses.
func (m *Memory) Writes() uint64 { return m.writes }

// inRAM reports whether [addr, addr+n) is inside mapped RAM and above the
// guard page.
func inRAM(addr uint64, n int) bool {
	return addr >= NullPageEnd && addr+uint64(n) <= Size && addr+uint64(n) >= addr
}

// CheckUser classifies a user-mode data access of n bytes at addr without
// performing it; the pipelines use it at address-generation time.
func (m *Memory) CheckUser(addr uint64, n int, write bool) Fault {
	if !inRAM(addr, n) {
		return FaultUnmapped
	}
	if addr+uint64(n) > KernelBase {
		return FaultProt
	}
	if write && addr < m.textEnd {
		return FaultProt
	}
	return FaultNone
}

// Read copies n = len(dst) bytes at addr into dst with user-mode
// permission checks.
func (m *Memory) Read(addr uint64, dst []byte) Fault {
	if f := m.CheckUser(addr, len(dst), false); f != FaultNone {
		return f
	}
	m.reads++
	copy(dst, m.ram[addr:])
	return FaultNone
}

// Write stores src at addr with user-mode permission checks.
func (m *Memory) Write(addr uint64, src []byte) Fault {
	if f := m.CheckUser(addr, len(src), true); f != FaultNone {
		return f
	}
	m.writes++
	m.markDirty(addr, len(src))
	copy(m.ram[addr:], src)
	return FaultNone
}

// Fetch copies len(dst) instruction bytes at addr into dst. Fetching is
// legal only from the text segment; it tolerates a short read at the end
// of text (returning how many bytes were valid).
func (m *Memory) Fetch(addr uint64, dst []byte) (int, Fault) {
	if addr < TextBase || addr >= m.textEnd {
		if addr >= KernelBase && addr < Size {
			return 0, FaultProt
		}
		return 0, FaultUnmapped
	}
	n := len(dst)
	if addr+uint64(n) > m.textEnd {
		n = int(m.textEnd - addr)
	}
	m.reads++
	copy(dst[:n], m.ram[addr:])
	return n, FaultNone
}

// RawRead reads without permission checks or accounting; the kernel and
// the hypervisor escape path (MARSS/QEMU analogue) use it, as does the
// cache hierarchy when it refills lines from RAM.
func (m *Memory) RawRead(addr uint64, dst []byte) {
	copy(dst, m.ram[addr:])
}

// RawWrite writes without permission checks or accounting.
func (m *Memory) RawWrite(addr uint64, src []byte) {
	m.markDirty(addr, len(src))
	copy(m.ram[addr:], src)
}

// Load installs an image segment at base.
func (m *Memory) Load(base uint64, data []byte) {
	m.markDirty(base, len(data))
	copy(m.ram[base:], data)
}

// Snapshot returns a copy of RAM for checkpointing.
func (m *Memory) Snapshot() []byte {
	s := make([]byte, len(m.ram))
	copy(s, m.ram)
	return s
}

// RestoreSnapshot restores RAM from a snapshot. The paged-snapshot
// tracking is conservatively reset: every page counts as written.
func (m *Memory) RestoreSnapshot(s []byte) {
	copy(m.ram, s)
	for i := range m.dirty {
		m.dirty[i] = ^uint64(0)
		m.nonzero[i] = ^uint64(0)
	}
	m.lastSnap = nil
}

// ---- Paged snapshots -------------------------------------------------------

// PagedSnapshot is a page-granular RAM image that keeps the pages it
// holds and nothing else: a page it does not list is all zeroes. Pages
// clean since the previous snapshot of the same machine are shared with
// it by reference. Snapshots are immutable once taken, so one snapshot
// may seed many machines concurrently.
type PagedSnapshot struct {
	index []uint16 // page numbers held, ascending
	pages [][]byte // pages[i] is page index[i]
	own   int      // pages copied for this snapshot rather than shared with its base
}

// SizeBytes estimates the heap this snapshot adds to what its sharing
// base already holds: the pages it copied, its page list and itself.
func (s *PagedSnapshot) SizeBytes() int {
	return s.own*int(PageSize) + 2*cap(s.index) + 24*cap(s.pages) + int(unsafe.Sizeof(*s))
}

// markDirty flags the pages of [addr, addr+n) as written. Out-of-range
// spans are clamped the way the copy-based accessors clamp them.
func (m *Memory) markDirty(addr uint64, n int) {
	if n <= 0 || addr >= Size {
		return
	}
	end := addr + uint64(n) - 1
	if end >= Size || end < addr {
		end = Size - 1
	}
	for p := int(addr / PageSize); p <= int(end/PageSize); p++ {
		m.dirty[p>>6] |= 1 << uint(p&63)
		m.nonzero[p>>6] |= 1 << uint(p&63)
	}
}

func bmBit(bm *[bmWords]uint64, p int) bool {
	return bm[p>>6]&(1<<uint(p&63)) != 0
}

// SnapshotPaged captures RAM as a paged snapshot. Pages untouched since
// the machine's previous paged snapshot (or restore) are shared with it;
// pages never written at all are not held. The returned snapshot becomes
// the new sharing base of this machine.
func (m *Memory) SnapshotPaged() *PagedSnapshot {
	// Every page a snapshot holds has been written since boot or the last
	// restore, so the nonzero pages bound the list.
	held := 0
	for _, w := range m.nonzero {
		held += bits.OnesCount64(w)
	}
	s := &PagedSnapshot{index: make([]uint16, 0, held), pages: make([][]byte, 0, held)}
	base, j := m.lastSnap, 0 // j walks base's page list alongside p
	for p := 0; p < numPages; p++ {
		var shared []byte
		if base != nil && j < len(base.index) && int(base.index[j]) == p {
			shared = base.pages[j]
			j++
		}
		var pg []byte
		switch {
		case base != nil && !bmBit(&m.dirty, p):
			pg = shared
		case !bmBit(&m.nonzero, p):
			// Never written: all zeroes, not held.
		default:
			pg = make([]byte, PageSize)
			copy(pg, m.ram[uint64(p)*PageSize:])
			s.own++
		}
		if pg != nil {
			s.index = append(s.index, uint16(p))
			s.pages = append(s.pages, pg)
		}
	}
	clear(m.dirty[:])
	m.lastSnap = s
	return s
}

// RestorePaged loads a paged snapshot into RAM, copying only pages that
// can differ: a page the snapshot does not hold is cleared only if this
// memory has written it, and a fresh machine restores a small program in
// a handful of page copies instead of a full-RAM copy. The snapshot
// becomes the machine's new sharing base.
func (m *Memory) RestorePaged(s *PagedSnapshot) {
	j := 0 // walks s's page list alongside p
	for p := 0; p < numPages; p++ {
		off := uint64(p) * PageSize
		if j < len(s.index) && int(s.index[j]) == p {
			copy(m.ram[off:off+PageSize], s.pages[j])
			m.nonzero[p>>6] |= 1 << uint(p&63)
			j++
			continue
		}
		if bmBit(&m.nonzero, p) {
			clear(m.ram[off : off+PageSize])
			m.nonzero[p>>6] &^= 1 << uint(p&63)
		}
	}
	clear(m.dirty[:])
	m.lastSnap = s
}

// Page returns the snapshot's page p (nil when all zeroes); tests use it
// to assert copy-on-write sharing.
func (s *PagedSnapshot) Page(p int) []byte {
	if i, ok := slices.BinarySearch(s.index, uint16(p)); ok && p >= 0 && p < numPages {
		return s.pages[i]
	}
	return nil
}
