package pipeline

import (
	"fmt"

	"repro/internal/bitarray"
)

// LSQConfig selects the load/store queue organization.
type LSQConfig struct {
	// Name prefixes the data array structure name.
	Name string
	// Unified selects the MARSS organization: one queue whose entries
	// hold data for loads and stores alike. False selects the Gem5
	// organization: separate load and store queues, data held only by
	// the store side.
	Unified bool
	// LoadEntries is the queue size for loads (the total size when
	// Unified).
	LoadEntries int
	// StoreEntries is the store queue size (ignored when Unified).
	StoreEntries int
}

type lsqEntry struct {
	valid     bool
	isStore   bool
	robIdx    int
	seq       uint64
	addr      uint64
	size      uint8
	addrValid bool
	dataValid bool
	executed  bool // loads: result obtained
}

// FwdResult is the answer to a load's store-queue search.
type FwdResult struct {
	// UnknownOlder is set when at least one older store has an
	// unresolved address. The conservative (Gem5-like) core refuses to
	// issue the load; the aggressive (MARSS-like) core proceeds and
	// relies on violation detection.
	UnknownOlder bool
	// MustWait is set when an older store overlaps but cannot forward
	// (partial cover or data not yet available).
	MustWait bool
	// Forward is set when the youngest older overlapping store fully
	// covers the load and its data can be forwarded.
	Forward bool
	// FwdIdx is the forwarding store's queue index.
	FwdIdx int
	// FwdShift is the byte offset of the load within the store's data.
	FwdShift uint
}

// LSQ is the load/store queue.
type LSQ struct {
	cfg     LSQConfig
	entries []lsqEntry
	data    *bitarray.Array
	loads   int
	stores  int
	// hits backs the results of StoreResolved and LineSharers, which a
	// store-heavy loop would otherwise allocate on every resolved store.
	hits []int
}

// NewLSQ builds a load/store queue; it panics on bad geometry.
func NewLSQ(cfg LSQConfig) *LSQ {
	if cfg.LoadEntries <= 0 || (!cfg.Unified && cfg.StoreEntries <= 0) {
		panic(fmt.Sprintf("pipeline: bad LSQ config %+v", cfg))
	}
	total := cfg.LoadEntries
	dataEntries := cfg.LoadEntries
	if !cfg.Unified {
		total += cfg.StoreEntries
		dataEntries = cfg.StoreEntries
	}
	q := &LSQ{
		cfg:     cfg,
		entries: make([]lsqEntry, total),
		data:    bitarray.New(cfg.Name, dataEntries, 64),
	}
	q.data.SetValidFunc(func(e int) bool {
		i := e
		if !cfg.Unified {
			i += cfg.LoadEntries
		}
		return q.entries[i].valid
	})
	return q
}

// DataArray returns the injectable data storage (the structure of the
// paper's Fig. 6).
func (q *LSQ) DataArray() *bitarray.Array { return q.data }

// Config returns the queue configuration.
func (q *LSQ) Config() LSQConfig { return q.cfg }

// Loads returns the number of load entries in flight.
func (q *LSQ) Loads() int { return q.loads }

// Stores returns the number of store entries in flight.
func (q *LSQ) Stores() int { return q.stores }

// CanAlloc reports whether an entry of the given kind can be allocated.
func (q *LSQ) CanAlloc(isStore bool) bool {
	if q.cfg.Unified {
		return q.loads+q.stores < q.cfg.LoadEntries
	}
	if isStore {
		return q.stores < q.cfg.StoreEntries
	}
	return q.loads < q.cfg.LoadEntries
}

// allocRange returns the index range to search for a free slot, which
// is also the only range that can hold an entry of that kind: the whole
// queue when unified, the kind's own half when split.
func (q *LSQ) allocRange(isStore bool) (lo, hi int) {
	if q.cfg.Unified {
		return 0, q.cfg.LoadEntries
	}
	if isStore {
		return q.cfg.LoadEntries, q.cfg.LoadEntries + q.cfg.StoreEntries
	}
	return 0, q.cfg.LoadEntries
}

// dataIdx maps a queue index to its slot in the data array, or -1 when
// the entry has no data storage (split-organization loads).
func (q *LSQ) dataIdx(idx int) int {
	if q.cfg.Unified {
		return idx
	}
	if idx < q.cfg.LoadEntries {
		return -1
	}
	return idx - q.cfg.LoadEntries
}

// HasDataStorage reports whether entry idx owns a data array slot.
func (q *LSQ) HasDataStorage(idx int) bool { return q.dataIdx(idx) >= 0 }

// Alloc reserves an entry for a memory op in program order seq.
func (q *LSQ) Alloc(isStore bool, robIdx int, seq uint64) (int, bool) {
	if !q.CanAlloc(isStore) {
		return -1, false
	}
	lo, hi := q.allocRange(isStore)
	for i := lo; i < hi; i++ {
		if !q.entries[i].valid {
			q.entries[i] = lsqEntry{valid: true, isStore: isStore, robIdx: robIdx, seq: seq}
			if isStore {
				q.stores++
			} else {
				q.loads++
			}
			return i, true
		}
	}
	return -1, false
}

// SetAddr records the resolved address of entry idx.
func (q *LSQ) SetAddr(idx int, addr uint64, size uint8) {
	e := &q.entries[idx]
	e.addr, e.size, e.addrValid = addr, size, true
}

// Addr returns the resolved address and size of entry idx.
func (q *LSQ) Addr(idx int) (uint64, uint8) { return q.entries[idx].addr, q.entries[idx].size }

// IsStore reports whether the entry is a store.
func (q *LSQ) IsStore(idx int) bool { return q.entries[idx].isStore }

// PutData deposits a value into the entry's data slot (store data at
// execute; load results too in the unified organization).
func (q *LSQ) PutData(idx int, v uint64) {
	if di := q.dataIdx(idx); di >= 0 {
		q.data.WriteUint64(di, v)
	}
	q.entries[idx].dataValid = true
}

// Data reads the entry's data slot through the faultable array.
func (q *LSQ) Data(idx int) uint64 {
	di := q.dataIdx(idx)
	if di < 0 {
		return 0
	}
	return q.data.ReadUint64(di)
}

// DataValid reports whether data has been deposited.
func (q *LSQ) DataValid(idx int) bool { return q.entries[idx].dataValid }

// MarkExecuted flags a load whose result has been obtained.
func (q *LSQ) MarkExecuted(idx int) { q.entries[idx].executed = true }

// QueryLoad searches the older stores for the load at idx.
func (q *LSQ) QueryLoad(idx int) FwdResult {
	res := FwdResult{FwdIdx: -1}
	if q.stores == 0 {
		return res
	}
	le := &q.entries[idx]
	var bestSeq uint64
	lo, hi := q.allocRange(true)
	for i := lo; i < hi; i++ {
		se := &q.entries[i]
		if !se.valid || !se.isStore || se.seq >= le.seq {
			continue
		}
		if !se.addrValid {
			res.UnknownOlder = true
			continue
		}
		if !overlap(se.addr, se.size, le.addr, le.size) {
			continue
		}
		if se.seq > bestSeq {
			bestSeq = se.seq
			if covers(se.addr, se.size, le.addr, le.size) && se.dataValid && q.HasDataStorage(i) {
				res.Forward = true
				res.FwdIdx = i
				res.FwdShift = uint(le.addr - se.addr)
				res.MustWait = false
			} else {
				res.Forward = false
				res.FwdIdx = -1
				res.MustWait = true
			}
		}
	}
	return res
}

// StoreResolved reports the ROB indices of younger already-executed
// loads that overlap the just-resolved store at idx — the ordering
// violations of aggressive load speculation. The result is valid until
// the next StoreResolved or LineSharers.
func (q *LSQ) StoreResolved(idx int) []int {
	se := &q.entries[idx]
	violated := q.hits[:0]
	lo, hi := q.allocRange(false)
	if q.loads == 0 {
		hi = lo
	}
	for i := lo; i < hi; i++ {
		le := &q.entries[i]
		if !le.valid || le.isStore || le.seq <= se.seq || !le.executed || !le.addrValid {
			continue
		}
		if overlap(se.addr, se.size, le.addr, le.size) {
			violated = append(violated, le.robIdx)
		}
	}
	q.hits = violated
	return violated
}

// LineSharers returns the queue indices of younger already-executed
// loads whose address shares the cache line of the just-resolved store
// at idx without overlapping its bytes. Aggressive cores (MARSS) replay
// such loads — re-accessing the cache — which is the paper's Remark 3
// mechanism behind MaFIN's inflated executed-load counts. The result is
// valid until the next StoreResolved or LineSharers.
func (q *LSQ) LineSharers(idx int, lineSize uint64) []int {
	se := &q.entries[idx]
	line := se.addr &^ (lineSize - 1)
	out := q.hits[:0]
	lo, hi := q.allocRange(false)
	if q.loads == 0 {
		hi = lo
	}
	for i := lo; i < hi; i++ {
		le := &q.entries[i]
		if !le.valid || le.isStore || le.seq <= se.seq || !le.executed || !le.addrValid {
			continue
		}
		if le.addr&^(lineSize-1) != line {
			continue
		}
		if overlap(se.addr, se.size, le.addr, le.size) {
			continue // a true violation, reported by StoreResolved
		}
		out = append(out, i)
	}
	q.hits = out
	return out
}

// Free releases entry idx (commit or squash).
func (q *LSQ) Free(idx int) {
	e := &q.entries[idx]
	if !e.valid {
		return
	}
	if di := q.dataIdx(idx); di >= 0 {
		q.data.InvalidateObserve(di)
	}
	if e.isStore {
		q.stores--
	} else {
		q.loads--
	}
	e.valid = false
}

// FlushAll discards every entry (commit-point recovery).
func (q *LSQ) FlushAll() {
	for i := range q.entries {
		if q.entries[i].valid {
			q.Free(i)
		}
	}
}

func overlap(a uint64, an uint8, b uint64, bn uint8) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}

func covers(sa uint64, sn uint8, la uint64, ln uint8) bool {
	return sa <= la && la+uint64(ln) <= sa+uint64(sn)
}
