package cache

import (
	"encoding/binary"

	"repro/internal/bitarray"
	"repro/internal/mem"
)

// Hierarchy is what the detail window's exit rule reads of a machine:
// its caches, its TLBs and the RAM under them. Both detailed cores build
// one at New and ask it, on the cycles a window may close, whether every
// armed fault is capture-safe — whether a run continued off captured
// architectural state (registers, RAM, kernel) is the run the machine
// itself would have gone on to execute.
type Hierarchy struct {
	mem    *mem.Memory
	caches []*Cache
	backs  []bool // caches[i] refills another cache
	tlbs   []*TLB
	buf    []byte // one line of RAM
}

// NewHierarchy describes a machine's memory system. Which cache backs
// which is read off the caches themselves.
func NewHierarchy(m *mem.Memory, caches []*Cache, tlbs []*TLB) *Hierarchy {
	h := &Hierarchy{mem: m, caches: caches, tlbs: tlbs, backs: make([]bool, len(caches))}
	for _, u := range caches {
		for i, c := range caches {
			if l, ok := u.lower.(*Cache); ok && l == c {
				h.backs[i] = true
			}
		}
		if len(h.buf) < u.cfg.LineSize {
			h.buf = make([]byte, u.cfg.LineSize)
		}
	}
	return h
}

// CaptureSafe reports whether no fault armed on the watched arrays can
// still make the machine serve bytes or translations a captured state
// does not carry. It looks without touching: no access counter moves and
// no fault is observed. The proof is DESIGN §12; the rule:
//
//   - a fault outside the hierarchy (register files, queues, predictors)
//     is always safe on a drained machine;
//   - a TLB fault is safe while the faulted entry holds no valid
//     translation;
//   - a cache-array fault is safe once its line is invalid; or, under
//     write-back, dirty with a stored tag inside RAM (FlushDirty carries
//     it down as the eviction would); or, under dual-copy, a data-array
//     fault on a line with no tag or valid-bit fault whose stored bytes
//     equal RAM at the address its stored tag names;
//   - except that a consumed fault in a cache that backs another is
//     never safe: a refill may have copied the line upward, nothing
//     back-invalidates, and holding the window open is the cycle-accurate
//     reference itself.
func (h *Hierarchy) CaptureSafe(watch []*bitarray.Array) bool {
	for _, a := range watch {
		ci, t := h.cacheOf(a), h.tlbOf(a)
		for i := 0; i < a.FaultCount(); i++ {
			f, consumed := a.FaultAt(i)
			switch {
			case ci >= 0:
				if consumed && h.backs[ci] || !h.lineCaptureSafe(h.caches[ci], a, f.Entry) {
					return false
				}
			case t != nil && t.EntryValid(f.Entry):
				return false
			}
		}
	}
	return true
}

func (h *Hierarchy) cacheOf(a *bitarray.Array) int {
	for i, c := range h.caches {
		if a == c.data || a == c.tags || a == c.valid {
			return i
		}
	}
	return -1
}

func (h *Hierarchy) tlbOf(a *bitarray.Array) *TLB {
	for _, t := range h.tlbs {
		if a == t.valid || a == t.tags || a == t.ppns {
			return t
		}
	}
	return nil
}

// lineCaptureSafe applies the per-line rule of CaptureSafe to a fault
// armed on array a, one of cache c's own, at the given line.
func (h *Hierarchy) lineCaptureSafe(c *Cache, a *bitarray.Array, line int) bool {
	if line < 0 || line >= len(c.lruClock) || c.valid.Peek(line)[0]&1 == 0 {
		return true
	}
	if !c.cfg.DualCopy {
		// A dirty line whose (faulted) stored tag names an address
		// outside RAM cannot be flushed; its eviction stops the simulator,
		// which only the cycle-accurate run reproduces.
		_, inRAM := c.storedAddr(line)
		return c.isDirty(line) && inRAM
	}
	if a != c.data || c.tags.FaultOn(line) || c.valid.FaultOn(line) {
		return false
	}
	return h.lineEqualsRAM(c, line)
}

// storedAddr is the address the line's stored tag names, peeked, and
// whether the whole line lies inside RAM.
func (c *Cache) storedAddr(line int) (addr uint64, inRAM bool) {
	tag := c.tags.Peek(line)[0] & (1<<TagBits - 1)
	addr = tag<<(c.offBits+c.setBits) | uint64(line/c.cfg.Ways)<<c.offBits
	return addr, addr+uint64(c.cfg.LineSize) <= mem.Size
}

// lineEqualsRAM compares the stored bytes of a line of cache c with RAM
// at the address its stored tag names, without accessing either. A
// stored tag naming an address outside RAM compares unequal.
func (h *Hierarchy) lineEqualsRAM(c *Cache, line int) bool {
	addr, inRAM := c.storedAddr(line)
	if !inRAM {
		return false
	}
	buf := h.buf[:c.cfg.LineSize]
	h.mem.RawRead(addr, buf)
	for i, w := range c.data.Peek(line) {
		var r uint64
		if rest := buf[8*i:]; len(rest) >= 8 {
			r = binary.LittleEndian.Uint64(rest)
		} else {
			for j, b := range rest {
				r |= uint64(b) << (8 * uint(j))
			}
		}
		if r != w {
			return false
		}
	}
	return true
}
