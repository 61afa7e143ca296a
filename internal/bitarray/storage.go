package bitarray

import (
	"fmt"
	"sync"
)

// This file holds the two ways array storage outlives or leaves one
// machine: the boot pool that recycles backing words across machines,
// and the sparse snapshot form checkpoints keep.

// pools recycles backing storage across machine boots, one sync.Pool per
// word count: array geometry is fixed per configuration, so a process
// sees a handful of lengths. A windowed injection run boots a machine
// that often lives a few thousand cycles; zero-filling fresh megabyte
// arrays for each was most of what a campaign allocated. sync.Pool (not
// a free list) on purpose: what the collector lets go between bursts
// should go.
var (
	poolMu sync.Mutex
	pools  = map[int]*sync.Pool{}
)

// poolFor returns the pool of n-word storage, nil when create is false
// and nothing of that length was ever released.
func poolFor(n int, create bool) *sync.Pool {
	poolMu.Lock()
	defer poolMu.Unlock()
	p := pools[n]
	if p == nil && create {
		p = new(sync.Pool)
		pools[n] = p
	}
	return p
}

// takeWords returns n zeroed words, recycled when a released array of
// that length is available. Recycled storage is cleared here, on the way
// out, so nothing depends on what a dead machine left behind.
func takeWords(n int) []uint64 {
	if p := poolFor(n, false); p != nil {
		if v := p.Get(); v != nil {
			w := *v.(*[]uint64)
			clear(w)
			return w
		}
	}
	return make([]uint64, n)
}

// TakeWords returns n zeroed words from the boot pool, for the per-line
// metadata an array's owner keeps beside it; ReleaseWords hands them
// back when the machine dies.
func TakeWords(n int) []uint64 { return takeWords(n) }

// ReleaseWords hands words taken with TakeWords back to the boot pool.
// The caller guarantees nothing uses them any more.
func ReleaseWords(w []uint64) {
	if w != nil {
		poolFor(len(w), true).Put(&w)
	}
}

// Release hands the array's backing storage to the boot pool. The
// caller guarantees the machine owning the array is dead; any later
// access panics on the nil storage rather than corrupt the machine the
// words went to. Snapshots never alias the storage and stay valid.
func (a *Array) Release() {
	if a.data == nil {
		return
	}
	ReleaseWords(a.data)
	a.data = nil
}

// Sparse is a copy of word storage that keeps only the groups holding a
// non-zero word — for an Array, a group is an entry. Checkpoints of
// large arrays a program touches a fraction of (a 1 MB L2 data array a
// MiBench kernel uses a few hundred lines of) cost what is used, not
// what exists. The criterion is content, not validity: the stale bytes
// of an invalidated cache line are kept, because a valid-bit fault can
// expose them. A Sparse is immutable once made, so one may seed many
// arrays concurrently.
type Sparse struct {
	words int      // length of the dense storage
	per   int      // words per group
	index []uint32 // groups kept, ascending
	data  []uint64 // len(index)*per words
}

// Sparsify captures dense, taken as groups of per words.
func Sparsify(dense []uint64, per int) *Sparse {
	if per <= 0 || len(dense)%per != 0 {
		panic(fmt.Sprintf("bitarray.Sparsify: %d words do not divide into groups of %d", len(dense), per))
	}
	nonzero := func(g []uint64) bool {
		for _, w := range g {
			if w != 0 {
				return true
			}
		}
		return false
	}
	n := 0
	for i := 0; i < len(dense); i += per {
		if nonzero(dense[i : i+per]) {
			n++
		}
	}
	s := &Sparse{words: len(dense), per: per, index: make([]uint32, 0, n), data: make([]uint64, 0, n*per)}
	for i := 0; i < len(dense); i += per {
		if g := dense[i : i+per]; nonzero(g) {
			s.index = append(s.index, uint32(i/per))
			s.data = append(s.data, g...)
		}
	}
	return s
}

// Scatter makes dst equal to the storage s was captured from: zero
// everywhere but the kept groups. It panics on a length mismatch.
func (s *Sparse) Scatter(dst []uint64) {
	if len(dst) != s.words {
		panic(fmt.Sprintf("bitarray: sparse snapshot of %d words restored into %d", s.words, len(dst)))
	}
	clear(dst)
	for i, g := range s.index {
		copy(dst[int(g)*s.per:], s.data[i*s.per:(i+1)*s.per])
	}
}

// SizeBytes is the heap the snapshot retains.
func (s *Sparse) SizeBytes() int { return 4*cap(s.index) + 8*cap(s.data) }

// SnapshotSparse is Snapshot in sparse form: only entries with a
// non-zero word are copied.
func (a *Array) SnapshotSparse() *Sparse { return Sparsify(a.data, a.wordsPerEnt) }

// RestoreSparse restores raw storage from a SnapshotSparse copy. It
// panics if the snapshot does not match the array geometry.
func (a *Array) RestoreSparse(s *Sparse) {
	if s.per != a.wordsPerEnt {
		panic(fmt.Sprintf("bitarray %q: sparse snapshot of %d-word entries, array has %d", a.name, s.per, a.wordsPerEnt))
	}
	s.Scatter(a.data)
}
