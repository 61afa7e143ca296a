package interp

import (
	"sync"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/isa"
)

// decodeCache is a per-image table of predecoded instructions, indexed
// by byte offset into the linked text. Entries are filled lazily: the
// first machine to execute a static instruction decodes it once from
// the image's immutable text bytes, and every later dynamic dispatch —
// on any machine sharing the image — reuses the decoded isa.Inst.
//
// Soundness rests on text immutability: mem.SetTextEnd write-protects
// [TextBase, textEnd) on every tier, so the RAM bytes a Fetch would
// return are always exactly img.Text. Any PC outside the cached text,
// and any decode that fails or would read past the text end, returns a
// cache miss and the caller takes the slow Fetch+Decode path, so
// wild-PC and faulting behaviour is byte-identical to the uncached
// interpreter.
type decodeCache struct {
	base  uint64 // image text base address
	text  []byte // the image's immutable linked text
	slots []atomic.Pointer[isa.Inst]
}

// caches maps each linked image to its predecode table. It is never
// evicted: a registered benchmark is linked once per process per target
// (workload.Linked) and every factory and machine boot shares that image
// (sims.Factory), so the registry holds at most one table per {benchmark,
// target} however many campaigns and shards a process serves. Only a
// Workload built outside the benchmark table (tests' generated programs)
// links a fresh image, and adds a table, per factory.
var caches sync.Map // *asm.Image -> *decodeCache

// decodeHits and decodeMisses accumulate, process-wide, the dynamic
// dispatches served from a predecode table vs. pushed through the
// byte-level decoder. Machines count locally and flush per run slice,
// so the hot loop never touches shared cache lines.
var decodeHits, decodeMisses atomic.Uint64

// DecodeCacheStats returns the process-wide decode-cache hit/miss
// totals. Telemetry polls it as a lazily-read source (the same pattern
// as the golden-cache counters), keeping the interpreter hot path free
// of any per-event instrumentation.
func DecodeCacheStats() (hits, misses uint64) {
	return decodeHits.Load(), decodeMisses.Load()
}

func cacheFor(img *asm.Image) *decodeCache {
	if c, ok := caches.Load(img); ok {
		return c.(*decodeCache)
	}
	c := &decodeCache{
		base:  img.TextBase,
		text:  img.Text,
		slots: make([]atomic.Pointer[isa.Inst], len(img.Text)),
	}
	actual, _ := caches.LoadOrStore(img, c)
	return actual.(*decodeCache)
}

// lookup returns the predecoded instruction at pc, decoding and
// memoizing it on first use. A nil return means the PC is outside the
// cached text or its decode cannot be proven to stay inside it; the
// caller must fall back to the slow path, which re-derives the exact
// uncached behaviour (page fault, illegal instruction, or an
// instruction straddling the text end). Racing fills decode the same
// immutable bytes into equal Inst values, so last-store-wins is
// harmless; executed instructions are shared read-only (exec never
// writes through its *isa.Inst).
func (c *decodeCache) lookup(pc uint64, dec isa.Decoder) *isa.Inst {
	off := pc - c.base
	if off >= uint64(len(c.slots)) {
		return nil
	}
	if in := c.slots[off].Load(); in != nil {
		return in
	}
	in := new(isa.Inst)
	if err := dec.Decode(c.text[off:], pc, in); err != nil {
		return nil
	}
	if off+uint64(in.Len) > uint64(len(c.text)) {
		return nil
	}
	c.slots[off].Store(in)
	return in
}
