package cache

import (
	"unsafe"

	"repro/internal/bitarray"
)

// State is a deep copy of a cache's full contents — arrays, metadata and
// counters — used by the simulators' checkpointing support (the paper's
// injectors use simulator checkpoints to skip common prefixes of
// injection runs). It stores what the cache holds, not what it could
// hold: only lines with non-zero tag, valid, data or LRU words are kept
// (see bitarray.Sparse), and the dirty bits as a list of line numbers.
type State struct {
	Tags, Valid, Data, LRU *bitarray.Sparse
	// Dirty lists the dirty lines, ascending.
	Dirty []uint32
	Clock uint64
	Stats Stats
}

// SizeBytes is the heap the state retains.
func (s *State) SizeBytes() int {
	return int(unsafe.Sizeof(*s)) + s.Tags.SizeBytes() + s.Valid.SizeBytes() + s.Data.SizeBytes() + s.LRU.SizeBytes() + 4*cap(s.Dirty)
}

// State captures the cache.
func (c *Cache) State() *State {
	s := &State{
		Tags:  c.tags.SnapshotSparse(),
		Valid: c.valid.SnapshotSparse(),
		Data:  c.data.SnapshotSparse(),
		LRU:   bitarray.Sparsify(c.lruClock, 1),
		Clock: c.clock,
		Stats: c.stats,
	}
	for line := 0; line < len(c.lruClock); line++ {
		if c.isDirty(line) {
			s.Dirty = append(s.Dirty, uint32(line))
		}
	}
	return s
}

// SetState restores a previously captured state, whatever the cache
// held before. The state is copied, so one State may seed many cache
// instances concurrently.
func (c *Cache) SetState(s *State) {
	c.tags.RestoreSparse(s.Tags)
	c.valid.RestoreSparse(s.Valid)
	c.data.RestoreSparse(s.Data)
	s.LRU.Scatter(c.lruClock)
	clear(c.dirty)
	for _, line := range s.Dirty {
		c.setDirty(int(line), true)
	}
	c.clock = s.Clock
	c.stats = s.Stats
	c.gen++
}

// Release hands the storage of the cache's arrays and its per-line
// metadata to the boot pool (bitarray.Release). The machine owning the
// cache must be dead.
func (c *Cache) Release() {
	c.tags.Release()
	c.valid.Release()
	c.data.Release()
	bitarray.ReleaseWords(c.dirty)
	bitarray.ReleaseWords(c.lruClock)
	c.dirty, c.lruClock = nil, nil
}

// TLBState is a copy of a TLB, kept sparse like a cache's State: only
// the entries (and LRU stamps) with a non-zero word.
type TLBState struct {
	Valid, Tags, PPNs, LRU *bitarray.Sparse
	Clock                  uint64
	Stats                  TLBStats
}

// SizeBytes is the heap the state retains.
func (s *TLBState) SizeBytes() int {
	return int(unsafe.Sizeof(*s)) + s.Valid.SizeBytes() + s.Tags.SizeBytes() + s.PPNs.SizeBytes() + s.LRU.SizeBytes()
}

// State captures the TLB.
func (t *TLB) State() *TLBState {
	return &TLBState{
		Valid: t.valid.SnapshotSparse(),
		Tags:  t.tags.SnapshotSparse(),
		PPNs:  t.ppns.SnapshotSparse(),
		LRU:   bitarray.Sparsify(t.lru, 1),
		Clock: t.clock,
		Stats: t.stats,
	}
}

// SetState restores a previously captured state, whatever the TLB held
// before.
func (t *TLB) SetState(s *TLBState) {
	t.valid.RestoreSparse(s.Valid)
	t.tags.RestoreSparse(s.Tags)
	t.ppns.RestoreSparse(s.PPNs)
	s.LRU.Scatter(t.lru)
	t.clock = s.Clock
	t.stats = s.Stats
	t.gen++
}
