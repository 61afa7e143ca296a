package pipeline

import "unsafe"

// The states below are deep copies of the pipeline structures, used by
// the simulators' checkpointing support. A checkpoint is taken on a
// machine in flight, so each state carries everything its structure
// holds between two cycles, and restoring it makes the structure that
// one, whatever it held before. States are copied on restore, so one
// state may seed many machines concurrently.

// RegFileState is a physical register file, its rename tables and its
// allocation state: the speculative and the committed mapping both.
type RegFileState struct {
	Arr       []uint64
	Ready     []bool
	Live      []bool
	Free      []uint16
	RAT       []uint16
	CommitRAT []uint16
	Reads     uint64
	Writes    uint64
}

// SizeBytes is the heap the state retains.
func (s *RegFileState) SizeBytes() int {
	return int(unsafe.Sizeof(*s)) + 8*cap(s.Arr) + cap(s.Ready) + cap(s.Live) +
		2*(cap(s.Free)+cap(s.RAT)+cap(s.CommitRAT))
}

// State captures the register file.
func (r *RegFile) State() *RegFileState {
	n := len(r.ready)
	s := &RegFileState{
		Arr:       r.arr.Snapshot(),
		Ready:     make([]bool, n),
		Live:      make([]bool, n),
		Free:      make([]uint16, 0, r.FreeCount()),
		RAT:       make([]uint16, len(r.rat)),
		CommitRAT: make([]uint16, len(r.commitRAT)),
		Reads:     r.reads,
		Writes:    r.writes,
	}
	copy(s.Ready, r.ready)
	for p := range s.Live {
		s.Live[p] = r.isLive(p)
	}
	// The free list as one stack, bottom first: the spare registers
	// (handed out last, lowest first) under the stack.
	for p := n - 1; p >= 0; p-- {
		if r.spare[p>>6]&(1<<(p&63)) != 0 {
			s.Free = append(s.Free, uint16(p))
		}
	}
	s.Free = append(s.Free, r.free...)
	copy(s.RAT, r.rat)
	copy(s.CommitRAT, r.commitRAT)
	return s
}

// SetState restores a previously captured state.
func (r *RegFile) SetState(s *RegFileState) {
	r.arr.RestoreSnapshot(s.Arr)
	copy(r.ready, s.Ready)
	clear(r.live)
	for p, l := range s.Live {
		if l {
			r.live[p>>6] |= 1 << (p & 63)
		}
	}
	clear(r.spare)
	r.free = append(r.free[:0], s.Free...)
	copy(r.rat, s.RAT)
	copy(r.commitRAT, s.CommitRAT)
	r.reads = s.Reads
	r.writes = s.Writes
	r.dirty = true
}

// ROBState is the reorder buffer's in-flight entries, kept at their
// ring positions: the issue queue, the load/store queue and the core
// link to entries by index.
type ROBState struct {
	entries []ROBEntry // oldest first
	head    int
	seq     uint64
}

// SizeBytes is the heap the state retains.
func (s *ROBState) SizeBytes() int {
	return int(unsafe.Sizeof(*s)) + int(unsafe.Sizeof(ROBEntry{}))*cap(s.entries)
}

// State captures the reorder buffer.
func (r *ROB) State() *ROBState {
	s := &ROBState{entries: make([]ROBEntry, 0, r.count), head: r.head, seq: r.seq}
	r.Walk(func(_ int, e *ROBEntry) bool {
		s.entries = append(s.entries, *e)
		return true
	})
	return s
}

// SetState restores a previously captured state.
func (r *ROB) SetState(s *ROBState) {
	r.head, r.count, r.seq = s.head, len(s.entries), s.seq
	for i, e := range s.entries {
		r.entries[(r.head+i)%len(r.entries)] = e
	}
}

// IQState is the issue queue: the payload array and which slot holds
// which micro-op, in age order.
type IQState struct {
	payload []uint64
	robIdx  []int
	age     []int // the occupied slots, oldest first
}

// SizeBytes is the heap the state retains.
func (s *IQState) SizeBytes() int {
	return int(unsafe.Sizeof(*s)) + 8*cap(s.payload) +
		int(unsafe.Sizeof(0))*(cap(s.robIdx)+cap(s.age))
}

// State captures the issue queue.
func (q *IQ) State() *IQState {
	s := &IQState{
		payload: q.arr.Snapshot(),
		robIdx:  append([]int(nil), q.robIdx...),
		age:     make([]int, 0, q.n),
	}
	for i := q.head; i >= 0; i = q.next[i] {
		s.age = append(s.age, i)
	}
	return s
}

// SetState restores a previously captured state. Each slot's copy is
// rebuilt from the restored payload.
func (q *IQ) SetState(s *IQState) {
	q.arr.RestoreSnapshot(s.payload)
	copy(q.robIdx, s.robIdx)
	clear(q.used)
	q.head, q.tail, q.n = -1, -1, 0
	for _, i := range s.age {
		q.used[i>>6] |= 1 << (i & 63)
		pl := q.arr.Peek(i)
		q.uops[i] = UnpackUop(pl[0], pl[1])
		q.link(i)
	}
}

// LSQState is the load/store queue: its entries and its data array.
type LSQState struct {
	entries       []lsqEntry
	data          []uint64
	loads, stores int
}

// SizeBytes is the heap the state retains.
func (s *LSQState) SizeBytes() int {
	return int(unsafe.Sizeof(*s)) + int(unsafe.Sizeof(lsqEntry{}))*cap(s.entries) + 8*cap(s.data)
}

// State captures the load/store queue.
func (q *LSQ) State() *LSQState {
	return &LSQState{
		entries: append([]lsqEntry(nil), q.entries...),
		data:    q.data.Snapshot(),
		loads:   q.loads,
		stores:  q.stores,
	}
}

// SetState restores a previously captured state.
func (q *LSQ) SetState(s *LSQState) {
	copy(q.entries, s.entries)
	q.data.RestoreSnapshot(s.data)
	q.loads, q.stores = s.loads, s.stores
}

// Snapshot returns a copy of the queued micro-ops, oldest first.
func (q *FetchQueue) Snapshot() []FetchedUop {
	return append([]FetchedUop(nil), q.buf[q.head:]...)
}

// Restore makes the queue hold a copy of uops, oldest first.
func (q *FetchQueue) Restore(uops []FetchedUop) {
	q.buf = append(q.buf[:0], uops...)
	q.head = 0
}
