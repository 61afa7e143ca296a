package cache

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/mem"
)

// quietRig is a two-level cache hierarchy over its own RAM and a TLB.
type quietRig struct {
	l1, l2 *Cache
	tlb    *TLB
}

func newQuietRig(dual bool) *quietRig {
	m := mem.New()
	l2 := New(Config{Name: "l2", Size: 4 << 10, LineSize: 32, Ways: 4, Latency: 5, DualCopy: dual}, MemLevel{M: m, Lat: 20})
	return &quietRig{
		l1:  New(Config{Name: "l1", Size: 512, LineSize: 32, Ways: 2, Latency: 2, DualCopy: dual}, l2),
		l2:  l2,
		tlb: NewTLB(TLBConfig{Name: "tlb", Entries: 8, Ways: 2, MissLatency: 7}),
	}
}

func (r *quietRig) arrays() []*bitarray.Array {
	return slices.Concat(r.l1.Arrays(), r.l2.Arrays(), r.tlb.Arrays())
}

// same reports the first difference between two rigs: counters,
// statistics, LRU state and stored bits.
func (r *quietRig) same(o *quietRig) string {
	for i, a := range r.arrays() {
		b := o.arrays()[i]
		if a.Reads() != b.Reads() || a.Writes() != b.Writes() {
			return a.Name() + " counters"
		}
		for e := 0; e < a.Entries(); e++ {
			if !slices.Equal(a.Peek(e), b.Peek(e)) {
				return a.Name() + " storage"
			}
		}
	}
	for i, c := range []*Cache{r.l1, r.l2} {
		d := []*Cache{o.l1, o.l2}[i]
		if c.stats != d.stats || c.clock != d.clock || !slices.Equal(c.lruClock, d.lruClock) || !slices.Equal(c.dirty, d.dirty) {
			return c.cfg.Name + " stats, LRU or dirty bits"
		}
	}
	if r.tlb.stats != o.tlb.stats || r.tlb.clock != o.tlb.clock || !slices.Equal(r.tlb.lru, o.tlb.lru) {
		return "tlb stats or LRU"
	}
	return ""
}

// FuzzCacheQuietMatchesFaithful drives a two-level cache hierarchy and
// a TLB with no fault or profile attached — so every tag search takes
// the quiet path, reading storage directly and counting in bulk — beside
// a twin whose every array records a profile, which keeps it on the
// faithful path. Reads, writes, prefetches, tags-only accesses,
// translations and state restores go to both, and so do replays of the
// latest one-line read hit and translation hit, which the quiet side
// replays (Cache.ReplayRead, TLB.ReplayTranslate) while its generation
// stands still and the twin performs for real; the replayed read reuses
// the bytes of the hit it replays, as a line buffer does. After every
// operation the returned data, latencies and addresses, every array's
// counters and bits, the statistics and the LRU state must be equal.
func FuzzCacheQuietMatchesFaithful(f *testing.F) {
	f.Add(false, []byte{0, 1, 2, 0, 3, 5, 4, 4, 6, 7, 7, 9, 8, 1, 4})
	f.Add(true, []byte{1, 40, 0, 40, 4, 4, 2, 72, 6, 9, 7, 9, 8, 3, 0, 200, 4})
	// A buffered hit must not replay once its line was evicted (0, 20
	// and 40 share a set of the two-way L1), written, shadow-written or
	// restored away, nor a translation once its entry was evicted (1, 5
	// and 9 share a TLB set) or restored away.
	f.Add(false, []byte{0, 0, 0, 0, 0, 20, 0, 40, 4, 0})
	f.Add(false, []byte{0, 1, 0, 1, 2, 1, 4, 0})
	f.Add(true, []byte{0, 1, 0, 1, 9, 1, 4, 0})
	f.Add(false, []byte{0, 20, 8, 0, 0, 0, 0, 0, 8, 1, 4, 0})
	f.Add(false, []byte{6, 1, 6, 1, 6, 5, 6, 9, 7, 3})
	f.Add(false, []byte{6, 5, 8, 0, 6, 1, 6, 1, 8, 1, 7, 3})
	f.Fuzz(func(t *testing.T, dual bool, ops []byte) {
		q, p := newQuietRig(dual), newQuietRig(dual)
		step := uint64(0)
		for _, a := range p.arrays() {
			a.StartProfile(func() uint64 { return step })
		}
		var saved [3]any
		var hit struct {
			ok        bool
			h         Hit
			gen, addr uint64
			data      []byte
		}
		var thit struct {
			ok        bool
			h         Hit
			gen, page uint64
		}
		const base = 0x10000
		var qb, pb [48]byte
		for i := 0; i+1 < len(ops); i += 2 {
			step++
			op, arg := ops[i]%10, uint64(ops[i+1])
			addr := base + arg*13%(8<<10)
			n := 1 + int(arg%40)
			switch op {
			case 0, 1: // read
				qlat, qhit := q.l1.Read(addr, qb[:n])
				plat, phit := p.l1.Read(addr, pb[:n])
				if qlat != plat || qhit != phit || !bytes.Equal(qb[:n], pb[:n]) {
					t.Fatalf("step %d: read %#x+%d: %d %v %x, profiled %d %v %x", step, addr, n, qlat, qhit, qb[:n], plat, phit, pb[:n])
				}
				if qhit && addr/32 == (addr+uint64(n)-1)/32 {
					hit.ok = true
					hit.h, hit.gen, hit.addr, hit.data = q.l1.LastHit(), q.l1.Gen(), addr, append(hit.data[:0], qb[:n]...)
				}
			case 2: // write
				binary.LittleEndian.PutUint64(qb[:8], arg*0x9e3779b97f4a7c15)
				qlat, qhit := q.l1.Write(addr, qb[:n%9])
				plat, phit := p.l1.Write(addr, qb[:n%9])
				if qlat != plat || qhit != phit {
					t.Fatalf("step %d: write %#x: %d %v, profiled %d %v", step, addr, qlat, qhit, plat, phit)
				}
			case 3: // prefetch
				q.l1.Prefetch(addr)
				p.l1.Prefetch(addr)
			case 4: // replay the latest one-line read hit, reusing its bytes
				if !hit.ok || q.l1.Gen() != hit.gen {
					break
				}
				q.l1.ReplayRead(hit.h)
				n := len(hit.data)
				plat, phit := p.l1.Read(hit.addr, pb[:n])
				if plat != q.l1.cfg.Latency || !phit || !bytes.Equal(pb[:n], hit.data) {
					t.Fatalf("step %d: replayed read %#x: %x, profiled read %d %v %x", step, hit.addr, hit.data, plat, phit, pb[:n])
				}
			case 5: // tags-only access
				write := arg&1 != 0
				if ql, pl := q.l2.Timing(addr, n, write), p.l2.Timing(addr, n, write); ql != pl {
					t.Fatalf("step %d: timing %#x: %d, profiled %d", step, addr, ql, pl)
				}
			case 6: // translate
				va := arg << PageBits * 3
				gen := q.tlb.Gen()
				qpa, qlat := q.tlb.Translate(va)
				ppa, plat := p.tlb.Translate(va)
				if qpa != ppa || qlat != plat {
					t.Fatalf("step %d: translate %#x: %#x %d, profiled %#x %d", step, va, qpa, qlat, ppa, plat)
				}
				if q.tlb.Gen() == gen {
					thit.ok = true
					thit.h, thit.gen, thit.page = q.tlb.LastHit(), gen, va>>PageBits
				}
			case 7: // replay the latest translation hit, elsewhere in its page
				if !thit.ok || q.tlb.Gen() != thit.gen {
					break
				}
				va := thit.page<<PageBits | arg*17
				qpa := q.tlb.ReplayTranslate(thit.h, va)
				if ppa, plat := p.tlb.Translate(va); qpa != ppa || plat != 0 {
					t.Fatalf("step %d: replayed translation %#x: %#x, profiled %#x after %d", step, va, qpa, ppa, plat)
				}
			case 8: // checkpoint or restore
				if saved[0] == nil || arg&1 == 0 {
					saved = [3]any{q.l1.State(), q.l2.State(), q.tlb.State()}
					break
				}
				for _, r := range []*quietRig{q, p} {
					r.l1.SetState(saved[0].(*State))
					r.l2.SetState(saved[1].(*State))
					r.tlb.SetState(saved[2].(*TLBState))
				}
			case 9: // shadow write from above
				binary.LittleEndian.PutUint64(qb[:8], ^arg*0x9e3779b97f4a7c15)
				q.l1.ShadowWrite(addr, qb[:n%9])
				p.l1.ShadowWrite(addr, qb[:n%9])
			}
			if d := q.same(p); d != "" {
				t.Fatalf("step %d (op %d at %#x): quiet and profiled differ in %s", step, op, addr, d)
			}
		}
	})
}
