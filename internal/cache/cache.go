// Package cache models set-associative write-back caches with real
// storage: the tag, valid-bit and data arrays are bitarray.Arrays, so
// faults injected into them propagate exactly the way the paper's
// injectors propagate them — a flipped data bit corrupts the next load
// that hits the line, a flipped tag bit makes a line unreachable (or
// falsely reachable), a cleared valid bit silently drops a line.
//
// Two write-policy modes mirror the two simulators:
//
//   - WriteBack (the Gem5-like mode): the data array is the only copy of
//     a dirty line; evictions write the array contents — including any
//     injected corruption — down the hierarchy.
//   - DualCopy (the MARSS-like mode): MARSS keeps program data in its
//     main-memory model, and MaFIN's added data arrays mirror it. Stores
//     update the arrays of every level holding the line and main memory
//     itself; evictions discard the array copy without writing back, so
//     corruption dies with the line unless a load reads it first. This
//     is the extra L1D masking mechanism of the paper's Remark 3.
package cache

import (
	"fmt"

	"repro/internal/bitarray"
	"repro/internal/mem"
)

// Level is a lower memory level a cache refills from and writes back to.
type Level interface {
	// ReadLine fills dst with the line at the aligned address addr and
	// returns the access latency in cycles.
	ReadLine(addr uint64, dst []byte) int
	// WriteLine writes a full line (write-back path) and returns the
	// latency.
	WriteLine(addr uint64, src []byte) int
	// ShadowWrite propagates a store in dual-copy mode: levels update
	// their array copy if they hold the line; main memory always takes
	// the data. No latency is modeled — the timing of the store was
	// already paid at the top level.
	ShadowWrite(addr uint64, src []byte)
	// Timing performs a tags-only access: hit/miss state and latency
	// are modeled but no data moves. It reproduces the unmodified
	// MARSS, whose caches tracked tags while program data lived in main
	// memory (the §III.C data-array ablation).
	Timing(addr uint64, n int, write bool) int
}

// MemLevel adapts main memory as the bottom Level.
type MemLevel struct {
	M *mem.Memory
	// Lat is the access latency in cycles.
	Lat int
}

// ReadLine implements Level.
func (m MemLevel) ReadLine(addr uint64, dst []byte) int {
	m.M.RawRead(addr, dst)
	return m.Lat
}

// WriteLine implements Level.
func (m MemLevel) WriteLine(addr uint64, src []byte) int {
	m.M.RawWrite(addr, src)
	return m.Lat
}

// ShadowWrite implements Level.
func (m MemLevel) ShadowWrite(addr uint64, src []byte) {
	m.M.RawWrite(addr, src)
}

// Timing implements Level.
func (m MemLevel) Timing(addr uint64, n int, write bool) int { return m.Lat }

// Config describes one cache.
type Config struct {
	// Name prefixes the structure names of the arrays ("l1d" gives
	// "l1d.data", "l1d.tag", "l1d.valid").
	Name string
	// Size is the capacity in bytes.
	Size int
	// LineSize is the line size in bytes.
	LineSize int
	// Ways is the associativity.
	Ways int
	// Latency is the hit latency in cycles.
	Latency int
	// DualCopy selects the MARSS-like dual-copy write policy; false
	// selects true write-back.
	DualCopy bool
}

// TagBits is the width of the stored tag field.
const TagBits = 32

// Stats are the per-cache access counters backing the paper's
// remark-supporting statistics.
type Stats struct {
	ReadHits     uint64
	ReadMisses   uint64
	WriteHits    uint64
	WriteMisses  uint64
	Writebacks   uint64
	Replacements uint64
	Prefetches   uint64
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg     Config
	sets    int
	offBits uint
	setBits uint
	tags    *bitarray.Array
	valid   *bitarray.Array
	data    *bitarray.Array
	// dirty (one bit per line) and lruClock (per line: last-use
	// timestamp) come from the boot pool with the arrays and go back to
	// it with them.
	dirty    []uint64
	lruClock []uint64
	clock    uint64
	lower    Level
	stats    Stats
	lineBuf  []byte
	// gen counts the changes to what the cache holds: every fill,
	// eviction, write and SetState bumps it. While it stands still and
	// the arrays are Quiet, a tag search repeats what it found last time
	// (see Hit).
	gen uint64
	// hit is the footprint of the latest quiet search that hit.
	hit Hit
}

// Hit is the footprint of one quiet tag search that hit: the line it
// found and the valid and tag words it read on the way. While the
// structure's generation stands still and its arrays stay Quiet, the
// same search finds the same line the same way, so a caller that keeps
// a Hit may replay the access instead of repeating the search (the
// fetch stage's line buffer does).
type Hit struct {
	Line           int
	validRd, tagRd int
}

// New builds a cache over the given lower level. It panics on a bad
// geometry, which is a configuration programming error.
func New(cfg Config, lower Level) *Cache {
	if cfg.Size <= 0 || cfg.LineSize <= 0 || cfg.Ways <= 0 ||
		cfg.Size%(cfg.LineSize*cfg.Ways) != 0 {
		panic(fmt.Sprintf("cache %q: bad geometry %+v", cfg.Name, cfg))
	}
	sets := cfg.Size / (cfg.LineSize * cfg.Ways)
	if sets&(sets-1) != 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache %q: sets (%d) and line size must be powers of two", cfg.Name, sets))
	}
	lines := sets * cfg.Ways
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		offBits:  uint(log2(cfg.LineSize)),
		setBits:  uint(log2(sets)),
		tags:     bitarray.New(cfg.Name+".tag", lines, TagBits),
		valid:    bitarray.New(cfg.Name+".valid", lines, 1),
		data:     bitarray.New(cfg.Name+".data", lines, cfg.LineSize*8),
		dirty:    bitarray.TakeWords((lines + 63) / 64),
		lruClock: bitarray.TakeWords(lines),
		lower:    lower,
		lineBuf:  make([]byte, cfg.LineSize),
	}
	// A fault aimed at an invalid line's data can be skipped
	// immediately (the paper's invalid-entry early stop).
	c.data.SetValidFunc(func(line int) bool { return c.valid.ReadBit(line, 0) != 0 })
	c.tags.SetValidFunc(func(line int) bool { return c.valid.ReadBit(line, 0) != 0 })
	return c
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

func (c *Cache) isDirty(line int) bool { return c.dirty[line>>6]&(1<<(line&63)) != 0 }

func (c *Cache) setDirty(line int, d bool) {
	if d {
		c.dirty[line>>6] |= 1 << (line & 63)
	} else {
		c.dirty[line>>6] &^= 1 << (line & 63)
	}
}

// Quiet reports whether the tag, valid and data arrays are all
// bitarray-Quiet: no fault attached, no profile recording.
func (c *Cache) Quiet() bool { return c.valid.Quiet() && c.tags.Quiet() && c.data.Quiet() }

// Gen returns the cache's generation (see Cache.gen).
func (c *Cache) Gen() uint64 { return c.gen }

// LastHit returns the footprint of the latest quiet search that hit.
func (c *Cache) LastHit() Hit { return c.hit }

// ReplayRead repeats a one-line read hit whose search left h, without
// the search and without the copy: the same reads counted on the valid,
// tag and data arrays, the same hit counted and the same LRU stamp. The
// caller guarantees the generation has not moved since h was taken and
// the arrays are Quiet.
func (c *Cache) ReplayRead(h Hit) {
	c.valid.CountReads(h.validRd)
	c.tags.CountReads(h.tagRd)
	c.data.CountReads(1)
	c.stats.ReadHits++
	c.clock++
	c.lruClock[h.Line] = c.clock
}

// HoldsBytes reports whether line holds ref at byte offset off, without
// an access.
func (c *Cache) HoldsBytes(line, off int, ref []byte) bool {
	return c.data.HoldsBytes(line, off, ref)
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// Arrays returns the injectable storage arrays of the cache: data, tag
// and valid-bit arrays.
func (c *Cache) Arrays() []*bitarray.Array {
	return []*bitarray.Array{c.data, c.tags, c.valid}
}

// DataArray returns the data array (the structure the paper's Figs. 3–5
// inject into).
func (c *Cache) DataArray() *bitarray.Array { return c.data }

func (c *Cache) setOf(addr uint64) int {
	return int(addr >> c.offBits & uint64(c.sets-1))
}

func (c *Cache) tagOf(addr uint64) uint64 {
	return addr >> (c.offBits + c.setBits) & (1<<TagBits - 1)
}

func (c *Cache) lineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineSize) - 1)
}

// lookup finds the way holding addr in its set, reading the tag and
// valid arrays (so that faults in them are observed). It returns the
// line index and whether it hit. While both arrays are Quiet a read can
// only return the stored word, so the search reads storage directly and
// counts the words it looked at in bulk.
func (c *Cache) lookup(addr uint64) (int, bool) {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	base := set * c.cfg.Ways
	if c.valid.Quiet() && c.tags.Quiet() {
		tagRd := 0
		for w := 0; w < c.cfg.Ways; w++ {
			line := base + w
			if c.valid.Stored(line, 0)&1 == 0 {
				continue
			}
			tagRd++
			if c.tags.Stored(line, 0)&(1<<TagBits-1) == tag {
				c.valid.CountReads(w + 1)
				c.tags.CountReads(tagRd)
				c.hit = Hit{Line: line, validRd: w + 1, tagRd: tagRd}
				return line, true
			}
		}
		c.valid.CountReads(c.cfg.Ways)
		c.tags.CountReads(tagRd)
		return -1, false
	}
	for w := 0; w < c.cfg.Ways; w++ {
		line := base + w
		if c.valid.ReadBit(line, 0) != 0 && c.tags.ReadWord(line, 0)&(1<<TagBits-1) == tag {
			return line, true
		}
	}
	return -1, false
}

// victim picks the line to replace in the set of addr: an invalid way if
// any, else the LRU way.
func (c *Cache) victim(addr uint64) int {
	set := c.setOf(addr)
	base := set * c.cfg.Ways
	oldest, oldestClock := base, c.lruClock[base]
	quiet := c.valid.Quiet()
	for w := 0; w < c.cfg.Ways; w++ {
		line := base + w
		if quiet {
			if c.valid.Stored(line, 0)&1 == 0 {
				c.valid.CountReads(w + 1)
				return line
			}
		} else if c.valid.ReadBit(line, 0) == 0 {
			return line
		}
		if c.lruClock[line] < oldestClock {
			oldest, oldestClock = line, c.lruClock[line]
		}
	}
	if quiet {
		c.valid.CountReads(c.cfg.Ways)
	}
	return oldest
}

// evict removes the line, writing it back when dirty in write-back mode.
func (c *Cache) evict(line int, lat *int) {
	if c.valid.ReadBit(line, 0) == 0 {
		return
	}
	c.stats.Replacements++
	if c.isDirty(line) && !c.cfg.DualCopy {
		// Write-back: the array copy — faults included — goes down.
		c.stats.Writebacks++
		c.data.ReadBytes(line, 0, c.lineBuf)
		tag := c.tags.ReadWord(line, 0) & (1<<TagBits - 1)
		set := line / c.cfg.Ways
		addr := tag<<(c.offBits+c.setBits) | uint64(set)<<c.offBits
		*lat += c.lower.WriteLine(addr, c.lineBuf)
	} else {
		// The array copy dies without being read; a live transient
		// fault in it is provably masked.
		c.data.InvalidateObserve(line)
	}
	c.setDirty(line, false)
	c.valid.WriteBit(line, 0, 0)
}

// refill brings the line containing addr into the cache and returns its
// line index, accumulating latency.
func (c *Cache) refill(addr uint64, lat *int) int {
	la := c.lineAddr(addr)
	line := c.victim(la)
	c.gen++
	c.evict(line, lat)
	*lat += c.lower.ReadLine(la, c.lineBuf)
	c.data.WriteBytes(line, 0, c.lineBuf)
	c.tags.WriteWord(line, 0, c.tagOf(la))
	c.valid.WriteBit(line, 0, 1)
	c.setDirty(line, false)
	c.clock++
	c.lruClock[line] = c.clock
	return line
}

// Read copies len(dst) bytes at addr through the cache, returning the
// latency and whether every touched line hit.
func (c *Cache) Read(addr uint64, dst []byte) (lat int, hit bool) {
	hit = true
	for len(dst) > 0 {
		la := c.lineAddr(addr)
		off := int(addr - la)
		n := c.cfg.LineSize - off
		if n > len(dst) {
			n = len(dst)
		}
		lat += c.cfg.Latency
		line, ok := c.lookup(addr)
		if ok {
			c.stats.ReadHits++
		} else {
			c.stats.ReadMisses++
			hit = false
			line = c.refill(addr, &lat)
		}
		c.clock++
		c.lruClock[line] = c.clock
		c.data.ReadBytes(line, off, dst[:n])
		dst = dst[n:]
		addr += uint64(n)
	}
	return lat, hit
}

// Write stores src at addr through the cache (write-allocate), returning
// latency and hit status. In dual-copy mode the store also propagates to
// every lower level holding the line and to main memory.
func (c *Cache) Write(addr uint64, src []byte) (lat int, hit bool) {
	hit = true
	a := addr
	s := src
	for len(s) > 0 {
		la := c.lineAddr(a)
		off := int(a - la)
		n := c.cfg.LineSize - off
		if n > len(s) {
			n = len(s)
		}
		lat += c.cfg.Latency
		line, ok := c.lookup(a)
		if ok {
			c.stats.WriteHits++
		} else {
			c.stats.WriteMisses++
			hit = false
			line = c.refill(a, &lat)
		}
		c.clock++
		c.lruClock[line] = c.clock
		c.gen++
		c.data.WriteBytes(line, off, s[:n])
		c.setDirty(line, true)
		s = s[n:]
		a += uint64(n)
	}
	if c.cfg.DualCopy {
		c.lower.ShadowWrite(addr, src)
	}
	return lat, hit
}

// Prefetch brings the line holding addr into the cache if absent, with
// no demand latency accounted (the prefetcher works off the critical
// path).
func (c *Cache) Prefetch(addr uint64) {
	if _, ok := c.lookup(addr); ok {
		return
	}
	if c.lineAddr(addr)+uint64(c.cfg.LineSize) > mem.Size {
		return
	}
	c.stats.Prefetches++
	var lat int
	c.refill(addr, &lat)
}

// Present reports whether the line holding addr is cached; used by
// shadow propagation and by tests.
func (c *Cache) Present(addr uint64) bool {
	_, ok := c.lookup(addr)
	return ok
}

// FlushDirty writes every dirty valid line back down the hierarchy,
// exactly as eviction would — including any injected corruption, and at
// the address the (possibly corrupted) stored tag names. Afterwards the
// lower levels hold the architecturally authoritative data. In dual-copy
// mode main memory is already authoritative and nothing moves. Lines
// stay valid and resident; only the dirty bits clear.
func (c *Cache) FlushDirty() {
	if c.cfg.DualCopy {
		return
	}
	for line := 0; line < c.sets*c.cfg.Ways; line++ {
		if !c.isDirty(line) || c.valid.ReadBit(line, 0) == 0 {
			continue
		}
		c.stats.Writebacks++
		c.data.ReadBytes(line, 0, c.lineBuf)
		tag := c.tags.ReadWord(line, 0) & (1<<TagBits - 1)
		set := line / c.cfg.Ways
		addr := tag<<(c.offBits+c.setBits) | uint64(set)<<c.offBits
		c.lower.WriteLine(addr, c.lineBuf)
		c.setDirty(line, false)
	}
}

// ---- Level implementation (a cache can back another cache) ------------------

// ReadLine implements Level.
func (c *Cache) ReadLine(addr uint64, dst []byte) int {
	lat, _ := c.Read(addr, dst)
	return lat
}

// WriteLine implements Level.
func (c *Cache) WriteLine(addr uint64, src []byte) int {
	lat, _ := c.Write(addr, src)
	return lat
}

// Timing implements Level: a tags-only access that models hit/miss state,
// replacement and latency without moving data.
func (c *Cache) Timing(addr uint64, n int, write bool) int {
	lat := 0
	a := addr
	for n > 0 {
		la := c.lineAddr(a)
		seg := c.cfg.LineSize - int(a-la)
		if seg > n {
			seg = n
		}
		lat += c.cfg.Latency
		line, ok := c.lookup(a)
		if ok {
			if write {
				c.stats.WriteHits++
			} else {
				c.stats.ReadHits++
			}
		} else {
			if write {
				c.stats.WriteMisses++
			} else {
				c.stats.ReadMisses++
			}
			line = c.victim(la)
			c.gen++
			if c.valid.ReadBit(line, 0) != 0 {
				c.stats.Replacements++
				if c.isDirty(line) && !c.cfg.DualCopy {
					c.stats.Writebacks++
					lat += c.lower.Timing(la, c.cfg.LineSize, true)
				}
			}
			lat += c.lower.Timing(la, c.cfg.LineSize, false)
			c.tags.WriteWord(line, 0, c.tagOf(la))
			c.valid.WriteBit(line, 0, 1)
			c.setDirty(line, false)
		}
		if write {
			c.setDirty(line, true)
		}
		c.clock++
		c.lruClock[line] = c.clock
		n -= seg
		a += uint64(seg)
	}
	return lat
}

// ShadowWrite implements Level: update the array copy if the line is
// present (without disturbing LRU or stats), then pass the data down.
func (c *Cache) ShadowWrite(addr uint64, src []byte) {
	a := addr
	s := src
	for len(s) > 0 {
		la := c.lineAddr(a)
		off := int(a - la)
		n := c.cfg.LineSize - off
		if n > len(s) {
			n = len(s)
		}
		if line, ok := c.lookup(a); ok {
			c.gen++
			c.data.WriteBytes(line, off, s[:n])
		}
		s = s[n:]
		a += uint64(n)
	}
	c.lower.ShadowWrite(addr, src)
}
