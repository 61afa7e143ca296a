// Package predecode holds the per-image table of predecoded
// instructions that both execution tiers dispatch from: the functional
// interpreter (internal/interp) and the cycle-accurate core's fetch
// stage (internal/ooo). Each static instruction of a linked image is
// decoded once per process, from the image's immutable text bytes, and
// every later dynamic fetch of it — on any machine sharing the image —
// reuses the decoded isa.Inst.
package predecode

import (
	"sync"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Table is a per-image table of predecoded instructions, indexed by byte
// offset into the linked text. Entries are filled lazily.
//
// Soundness rests on text immutability: mem.SetTextEnd write-protects
// [TextBase, textEnd) on every tier, so the RAM bytes a fetch would
// return are always exactly img.Text. A caller whose bytes can differ
// from RAM (the detailed core fetching through a faultable I-cache)
// must show that its bytes equal Text before taking an entry. Any PC
// outside the text, and any decode that fails or would read past the
// text end, is a miss, and the caller takes its own fetch-and-decode
// path, so wild-PC and faulting behaviour is byte-identical to a
// machine without the table.
type Table struct {
	base  uint64 // image text base address
	text  []byte // the image's immutable linked text
	slots []atomic.Pointer[isa.Inst]
}

// tables maps each linked image to its table. It is never evicted: a
// registered benchmark is linked once per process per target
// (workload.Linked) and every factory and machine boot shares that image
// (sims.Factory), so the registry holds at most one table per {benchmark,
// target} however many campaigns and shards a process serves. Only a
// Workload built outside the benchmark table (tests' generated programs)
// links a fresh image, and adds a table, per factory.
var tables sync.Map // *asm.Image -> *Table

// For returns img's table, creating it on first use.
func For(img *asm.Image) *Table {
	if t, ok := tables.Load(img); ok {
		return t.(*Table)
	}
	t := &Table{
		base:  img.TextBase,
		text:  img.Text,
		slots: make([]atomic.Pointer[isa.Inst], len(img.Text)),
	}
	actual, _ := tables.LoadOrStore(img, t)
	return actual.(*Table)
}

// Registered counts the images the registry holds a table for.
func Registered() int {
	n := 0
	tables.Range(func(any, any) bool {
		n++
		return true
	})
	return n
}

// Forget drops img's table from the registry. A fuzz target links a
// fresh image per input; the registry never evicts, so without this a
// fuzzing process would keep every input's table.
func Forget(img *asm.Image) { tables.Delete(img) }

// Text returns the image text at pc, up to n bytes and never past the
// text end; it is empty when pc lies outside the text.
func (t *Table) Text(pc uint64, n int) []byte {
	off := pc - t.base
	if off >= uint64(len(t.text)) {
		return nil
	}
	end := off + uint64(n)
	if end > uint64(len(t.text)) {
		end = uint64(len(t.text))
	}
	return t.text[off:end]
}

// Lookup returns the predecoded instruction at pc, decoding and
// memoizing it on first use. A nil return means the PC is outside the
// text or its decode cannot be proven to stay inside it; the caller must
// fall back to its own path, which re-derives the exact behaviour
// (page fault, illegal instruction, or an instruction straddling the
// text end). Racing fills decode the same immutable bytes into equal
// Inst values, so last-store-wins is harmless; instructions are shared
// read-only (no tier writes through the returned *isa.Inst).
func (t *Table) Lookup(pc uint64, dec isa.Decoder) *isa.Inst {
	off := pc - t.base
	if off >= uint64(len(t.slots)) {
		return nil
	}
	if in := t.slots[off].Load(); in != nil {
		return in
	}
	in := new(isa.Inst)
	if err := dec.Decode(t.text[off:], pc, in); err != nil {
		return nil
	}
	if off+uint64(in.Len) > uint64(len(t.text)) {
		return nil
	}
	t.slots[off].Store(in)
	return in
}
