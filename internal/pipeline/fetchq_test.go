package pipeline

import "testing"

// TestFetchQueueFIFOAcrossCompaction drives the queue through every
// shape its head index takes — drained to empty, compacted on a full
// backing array, reset mid-stream — against a plain slice model.
func TestFetchQueueFIFOAcrossCompaction(t *testing.T) {
	var q FetchQueue
	var model []uint64
	next := uint64(1)
	push := func(n int) {
		for i := 0; i < n; i++ {
			u := q.Push()
			// Push does not clear the slot (the caller assigns every
			// field); it must never hand out one still queued.
			for j := q.head; j < len(q.buf)-1; j++ {
				if &q.buf[j] == u {
					t.Fatalf("Push handed out queued slot %d", j)
				}
			}
			u.PC, u.ExcInfo, u.IsBranch = next, ^next, true
			model = append(model, next)
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if got := q.Front().PC; got != model[0] {
				t.Fatalf("front = %d, want %d", got, model[0])
			}
			q.Pop()
			model = model[1:]
		}
	}
	check := func() {
		t.Helper()
		if q.Len() != len(model) {
			t.Fatalf("Len = %d, want %d", q.Len(), len(model))
		}
	}
	push(5)
	pop(5) // drains to empty: head returns to zero
	check()
	if q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("drained queue kept head=%d len=%d", q.head, len(q.buf))
	}
	for round := 0; round < 200; round++ {
		push(3 + round%4)
		pop(2 + round%3)
		check()
	}
	pop(len(model))
	check()
	push(4)
	pop(1)
	q.Reset()
	model = nil
	check()
	push(2)
	pop(2)
	check()
}

// TestFetchQueueStopsGrowing: a queue that never drains completely (the
// rename stage lags fetch) must compact instead of growing, so its
// backing array settles at peak occupancy and pushing stops allocating.
func TestFetchQueueStopsGrowing(t *testing.T) {
	var q FetchQueue
	for i := 0; i < 8; i++ {
		q.Push()
	}
	step := func() {
		q.Pop()
		q.Pop()
		q.Push()
		q.Push()
	}
	for i := 0; i < 64; i++ {
		step()
	}
	capBefore := cap(q.buf)
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("steady-state push/pop allocates %v times per step", n)
	}
	if cap(q.buf) != capBefore || q.Len() != 8 {
		t.Fatalf("cap %d -> %d, Len %d", capBefore, cap(q.buf), q.Len())
	}
}
