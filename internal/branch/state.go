package branch

import (
	"unsafe"

	"repro/internal/bitarray"
)

// The states below are copies of the front-end predictors, used by the
// simulators' checkpointing support. A program's branches touch a few
// dozen of the BTBs' 1–2K entries and of the tournament's 1,024 local
// history registers, so those are kept as bitarray.Sparse copies — what
// the predictor holds, not what it could — and restoring one clears the
// structure and scatters the kept words back. The 2-bit counter tables
// start weakly taken, not zero, and stay dense.

// TournamentState is a copy of a tournament predictor.
type TournamentState struct {
	LocalHist  *bitarray.Sparse
	LocalCtr   []uint8
	GlobalCtr  []uint8
	ChoiceCtr  []uint8
	GHR        uint64
	CommitGHR  uint64
	Lookups    uint64
	Mispredict uint64
}

// SizeBytes is the heap the state retains.
func (s *TournamentState) SizeBytes() int {
	return int(unsafe.Sizeof(*s)) + s.LocalHist.SizeBytes() + cap(s.LocalCtr) + cap(s.GlobalCtr) + cap(s.ChoiceCtr)
}

// State captures the predictor.
func (t *Tournament) State() *TournamentState {
	return &TournamentState{
		LocalHist:  bitarray.Sparsify(t.localHist, 1),
		LocalCtr:   append([]uint8(nil), t.localCtr...),
		GlobalCtr:  append([]uint8(nil), t.globalCtr...),
		ChoiceCtr:  append([]uint8(nil), t.choiceCtr...),
		GHR:        t.ghr,
		CommitGHR:  t.commitGHR,
		Lookups:    t.lookups,
		Mispredict: t.mispredict,
	}
}

// SetState restores a previously captured state (copied, so one state
// may seed many predictors).
func (t *Tournament) SetState(s *TournamentState) {
	s.LocalHist.Scatter(t.localHist)
	copy(t.localCtr, s.LocalCtr)
	copy(t.globalCtr, s.GlobalCtr)
	copy(t.choiceCtr, s.ChoiceCtr)
	t.ghr = s.GHR
	t.commitGHR = s.CommitGHR
	t.lookups = s.Lookups
	t.mispredict = s.Mispredict
}

// BTBState is a copy of a branch target buffer.
type BTBState struct {
	Valid, Tags, Targets, LRU *bitarray.Sparse
	Clock                     uint64
	Hits, Misses              uint64
}

// SizeBytes is the heap the state retains.
func (s *BTBState) SizeBytes() int {
	return int(unsafe.Sizeof(*s)) + s.Valid.SizeBytes() + s.Tags.SizeBytes() + s.Targets.SizeBytes() + s.LRU.SizeBytes()
}

// State captures the BTB.
func (b *BTB) State() *BTBState {
	return &BTBState{
		Valid:   b.valid.SnapshotSparse(),
		Tags:    b.tags.SnapshotSparse(),
		Targets: b.targets.SnapshotSparse(),
		LRU:     bitarray.Sparsify(b.lru, 1),
		Clock:   b.clock,
		Hits:    b.hits,
		Misses:  b.misses,
	}
}

// SetState restores a previously captured state, whatever the BTB held
// before.
func (b *BTB) SetState(s *BTBState) {
	b.valid.RestoreSparse(s.Valid)
	b.tags.RestoreSparse(s.Tags)
	b.targets.RestoreSparse(s.Targets)
	s.LRU.Scatter(b.lru)
	b.clock = s.Clock
	b.hits = s.Hits
	b.misses = s.Misses
}

// RASState is a copy of the return address stack.
type RASState struct {
	Entries []uint64
	Top     int
	Depth   int
}

// SizeBytes is the heap the state retains.
func (s *RASState) SizeBytes() int { return int(unsafe.Sizeof(*s)) + 8*cap(s.Entries) }

// State captures the RAS.
func (r *RAS) State() *RASState {
	return &RASState{Entries: r.entries.Snapshot(), Top: r.top, Depth: r.depth}
}

// SetState restores a previously captured state.
func (r *RAS) SetState(s *RASState) {
	r.entries.RestoreSnapshot(s.Entries)
	r.top = s.Top
	r.depth = s.Depth
}
