package ooo

// Test hooks: the trait table a machine carries, stepping for the
// front-end tests, which play Run's cycle by hand to find a cycle where
// the fetch queue is mid-stream, and what a checkpoint caught in flight.

// Traits returns the trait table the machine was booted with.
func (c *CPU) Traits() Traits { return c.t }

// Finished reports whether commit has latched a terminal state.
func (c *CPU) Finished() bool { return c.finished }

// FetchQueueLen is the number of micro-ops waiting between fetch and
// rename.
func (c *CPU) FetchQueueLen() int { return c.fetchQ.Len() }

// Busy reports work in the fetch queue, the ROB and the issue queue at
// once.
func (c *CPU) Busy() bool { return c.fetchQ.Len() > 0 && !c.rob.Empty() && c.iq.Len() > 0 }

// StepBackEnd plays a cycle up to the point where the front end would
// fetch: commit, complete, issue, rename.
func (c *CPU) StepBackEnd() {
	c.commit()
	c.complete()
	c.issue()
	c.rename()
}

// StepFetch finishes the cycle StepBackEnd began.
func (c *CPU) StepFetch() {
	c.fetch()
	c.cycle++
}

// StallPending reports a front-end stall the checkpoint caught: fetch
// resumes only at a later cycle.
func (cp *Checkpoint) StallPending() bool { return cp.fetchReady > cp.Cycle }

// Queued is the number of micro-ops the checkpoint caught between fetch
// and rename.
func (cp *Checkpoint) Queued() int { return len(cp.fetchQ) }
