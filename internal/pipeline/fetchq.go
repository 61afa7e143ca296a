package pipeline

import (
	"repro/internal/branch"
	"repro/internal/isa"
)

// FetchedUop is one decoded micro-op waiting for rename. Queue slots are
// reused without being cleared (see FetchQueue.Push): the branch fields
// after IsBranch are written and read only on a branch-carrying
// micro-op, every other field on every one.
type FetchedUop struct {
	Uop     isa.Uop
	PC      uint64
	NextPC  uint64
	Exc     isa.Exception
	ExcInfo uint64

	// InstFirst marks the first micro-op of its macro-instruction.
	InstFirst bool

	// Branch prediction state, valid on the branch-carrying uop.
	IsBranch   bool
	BranchInfo isa.BranchInfo
	HasPred    bool
	Pred       branch.Prediction
	PredTaken  bool
	PredTarget uint64
	RASTop     int
	RASDepth   int
}

// FetchQueue is the front-end micro-op queue between fetch and rename:
// a FIFO consumed from a head index, so one backing array serves the
// whole run (re-slicing the front away instead walks off the array and
// makes every later append reallocate). It holds simulator bookkeeping,
// not faultable state. The zero value is an empty queue.
type FetchQueue struct {
	buf  []FetchedUop
	head int
}

// Len returns the number of queued micro-ops.
func (q *FetchQueue) Len() int { return len(q.buf) - q.head }

// Push appends a micro-op slot and returns it for the caller to fill in
// place (a FetchedUop is 160 bytes; handing one over by value copies it
// twice on the way in, and zeroing it first was a measurable share of
// the cycle loop). The slot holds whatever it held before: the caller
// assigns every field the consumer reads (see FetchedUop). A full
// backing array with a drained prefix is compacted rather than grown,
// so capacity settles at the queue's peak occupancy. The pointer is
// valid until the next Push.
func (q *FetchQueue) Push() *FetchedUop {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	if len(q.buf) < cap(q.buf) {
		q.buf = q.buf[:len(q.buf)+1]
	} else {
		q.buf = append(q.buf, FetchedUop{})
	}
	return &q.buf[len(q.buf)-1]
}

// Front returns the oldest micro-op; call only when Len() > 0. The
// pointer is valid until the next Push.
func (q *FetchQueue) Front() *FetchedUop { return &q.buf[q.head] }

// Pop removes the oldest micro-op.
func (q *FetchQueue) Pop() {
	q.head++
	if q.head == len(q.buf) {
		q.Reset()
	}
}

// Reset empties the queue, keeping its backing array.
func (q *FetchQueue) Reset() {
	q.buf = q.buf[:0]
	q.head = 0
}
