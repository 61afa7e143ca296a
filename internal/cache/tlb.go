package cache

import (
	"fmt"

	"repro/internal/bitarray"
)

// PageBits is the page size (4 KiB pages).
const PageBits = 12

// TLBConfig describes a translation lookaside buffer.
type TLBConfig struct {
	// Name prefixes the structure names ("dtlb" gives "dtlb.tag", ...).
	Name string
	// Entries is the total entry count.
	Entries int
	// Ways is the associativity.
	Ways int
	// MissLatency is the page-walk cost in cycles.
	MissLatency int
}

// TLBStats counts translation activity.
type TLBStats struct {
	Hits   uint64
	Misses uint64
}

// TLB models a translation buffer with faultable valid, tag and
// physical-page-number arrays. The simulated machine maps virtual pages
// identically onto physical pages, so a fault-free translation is the
// identity — but a fault in a stored PPN silently redirects accesses to
// a different physical page, and a fault in a tag or valid bit causes
// spurious misses or false hits, exactly the failure modes the paper
// injects into the Data/Instruction TLBs.
type TLB struct {
	cfg   TLBConfig
	sets  int
	valid *bitarray.Array
	tags  *bitarray.Array // virtual page number tags
	ppns  *bitarray.Array // stored physical page numbers
	lru   []uint64
	clock uint64
	stats TLBStats
	// gen and hit are the cache's (see Cache.gen, Hit): every fill and
	// SetState bumps gen, and hit is the latest quiet search that hit.
	gen uint64
	hit Hit
}

// NewTLB builds a TLB; it panics on bad geometry.
func NewTLB(cfg TLBConfig) *TLB {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("tlb %q: bad geometry %+v", cfg.Name, cfg))
	}
	sets := cfg.Entries / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("tlb %q: sets must be a power of two", cfg.Name))
	}
	t := &TLB{
		cfg:   cfg,
		sets:  sets,
		valid: bitarray.New(cfg.Name+".valid", cfg.Entries, 1),
		tags:  bitarray.New(cfg.Name+".tag", cfg.Entries, 16),
		ppns:  bitarray.New(cfg.Name+".ppn", cfg.Entries, 16),
		lru:   make([]uint64, cfg.Entries),
	}
	t.tags.SetValidFunc(func(e int) bool { return t.valid.ReadBit(e, 0) != 0 })
	t.ppns.SetValidFunc(func(e int) bool { return t.valid.ReadBit(e, 0) != 0 })
	return t
}

// Stats returns the translation counters.
func (t *TLB) Stats() TLBStats { return t.stats }

// Arrays returns the injectable arrays: valid, tag and PPN.
func (t *TLB) Arrays() []*bitarray.Array {
	return []*bitarray.Array{t.valid, t.tags, t.ppns}
}

// EntryValid reports whether the entry currently holds a valid
// translation, without accessing the valid array. The detail window's
// exit rule (Hierarchy.CaptureSafe) treats a fault in a valid TLB entry as
// still resident: the stored translation keeps steering accesses, so the
// run may not leave the cycle-accurate window.
func (t *TLB) EntryValid(e int) bool {
	return e >= 0 && e < t.cfg.Entries && t.valid.Peek(e)[0]&1 != 0
}

// Quiet reports whether the valid, tag and PPN arrays are all
// bitarray-Quiet.
func (t *TLB) Quiet() bool { return t.valid.Quiet() && t.tags.Quiet() && t.ppns.Quiet() }

// Gen returns the TLB's generation.
func (t *TLB) Gen() uint64 { return t.gen }

// LastHit returns the footprint of the latest quiet search that hit.
func (t *TLB) LastHit() Hit { return t.hit }

// ReplayTranslate repeats a translation hit whose search left h, as
// Cache.ReplayRead does a read: the same reads counted, the same hit
// counted and the same LRU stamp. The caller guarantees the generation
// has not moved since h was taken, the arrays are Quiet and vaddr lies
// in the page h translated.
func (t *TLB) ReplayTranslate(h Hit, vaddr uint64) uint64 {
	t.valid.CountReads(h.validRd)
	t.tags.CountReads(h.tagRd)
	t.ppns.CountReads(1)
	t.stats.Hits++
	t.clock++
	t.lru[h.Line] = t.clock
	return t.ppns.Stored(h.Line, 0)&0xffff<<PageBits | vaddr&(1<<PageBits-1)
}

// Translate maps a virtual address to a physical address, returning the
// added latency on a miss. While the arrays are Quiet the searches read
// storage directly and count the words they looked at, as the cache's
// do.
func (t *TLB) Translate(vaddr uint64) (paddr uint64, lat int) {
	vpn := vaddr >> PageBits
	set := int(vpn) & (t.sets - 1)
	tag := vpn & 0xffff
	base := set * t.cfg.Ways
	quiet := t.Quiet()
	if quiet {
		tagRd := 0
		for w := 0; w < t.cfg.Ways; w++ {
			e := base + w
			if t.valid.Stored(e, 0)&1 == 0 {
				continue
			}
			tagRd++
			if t.tags.Stored(e, 0)&0xffff == tag {
				t.hit = Hit{Line: e, validRd: w + 1, tagRd: tagRd}
				return t.ReplayTranslate(t.hit, vaddr), 0
			}
		}
		t.valid.CountReads(t.cfg.Ways)
		t.tags.CountReads(tagRd)
	} else {
		for w := 0; w < t.cfg.Ways; w++ {
			e := base + w
			if t.valid.ReadBit(e, 0) != 0 && t.tags.ReadWord(e, 0)&0xffff == tag {
				t.stats.Hits++
				t.clock++
				t.lru[e] = t.clock
				ppn := t.ppns.ReadWord(e, 0) & 0xffff
				return ppn<<PageBits | vaddr&(1<<PageBits-1), 0
			}
		}
	}
	// Miss: walk (identity mapping) and fill the LRU way.
	t.stats.Misses++
	t.gen++
	victim := base
	for w := 0; w < t.cfg.Ways; w++ {
		e := base + w
		if quiet {
			if t.valid.Stored(e, 0)&1 == 0 {
				t.valid.CountReads(w + 1)
				victim = e
				break
			}
			if w == t.cfg.Ways-1 {
				t.valid.CountReads(t.cfg.Ways)
			}
		} else if t.valid.ReadBit(e, 0) == 0 {
			victim = e
			break
		}
		if t.lru[e] < t.lru[victim] {
			victim = e
		}
	}
	t.tags.WriteWord(victim, 0, tag)
	t.ppns.WriteWord(victim, 0, vpn&0xffff)
	t.valid.WriteBit(victim, 0, 1)
	t.clock++
	t.lru[victim] = t.clock
	return vaddr, t.cfg.MissLatency
}
