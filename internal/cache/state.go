package cache

// State is a deep copy of a cache's full contents — arrays, metadata and
// counters — used by the simulators' checkpointing support (the paper's
// injectors use simulator checkpoints to skip common prefixes of
// injection runs).
type State struct {
	Tags, Valid, Data []uint64
	Dirty             []bool
	LRU               []uint64
	Clock             uint64
	Stats             Stats
}

// SizeBytes estimates the heap the state retains.
func (s *State) SizeBytes() int {
	return 8*(len(s.Tags)+len(s.Valid)+len(s.Data)+len(s.LRU)) + len(s.Dirty)
}

// State captures the cache.
func (c *Cache) State() *State {
	s := &State{
		Tags:  c.tags.Snapshot(),
		Valid: c.valid.Snapshot(),
		Data:  c.data.Snapshot(),
		Dirty: make([]bool, len(c.dirty)),
		LRU:   make([]uint64, len(c.lruClock)),
		Clock: c.clock,
		Stats: c.stats,
	}
	copy(s.Dirty, c.dirty)
	copy(s.LRU, c.lruClock)
	return s
}

// SetState restores a previously captured state. The state is copied, so
// one State may seed many cache instances concurrently.
func (c *Cache) SetState(s *State) {
	c.tags.RestoreSnapshot(s.Tags)
	c.valid.RestoreSnapshot(s.Valid)
	c.data.RestoreSnapshot(s.Data)
	copy(c.dirty, s.Dirty)
	copy(c.lruClock, s.LRU)
	c.clock = s.Clock
	c.stats = s.Stats
}

// TLBState is a deep copy of a TLB.
type TLBState struct {
	Valid, Tags, PPNs []uint64
	LRU               []uint64
	Clock             uint64
	Stats             TLBStats
}

// State captures the TLB.
func (t *TLB) State() *TLBState {
	s := &TLBState{
		Valid: t.valid.Snapshot(),
		Tags:  t.tags.Snapshot(),
		PPNs:  t.ppns.Snapshot(),
		LRU:   make([]uint64, len(t.lru)),
		Clock: t.clock,
		Stats: t.stats,
	}
	copy(s.LRU, t.lru)
	return s
}

// SetState restores a previously captured state.
func (t *TLB) SetState(s *TLBState) {
	t.valid.RestoreSnapshot(s.Valid)
	t.tags.RestoreSnapshot(s.Tags)
	t.ppns.RestoreSnapshot(s.PPNs)
	copy(t.lru, s.LRU)
	t.clock = s.Clock
	t.stats = s.Stats
}
