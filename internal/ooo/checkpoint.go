package ooo

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// Checkpoint is a complete drained-machine state: memory, kernel, every
// storage array, all front-end predictor state and the architectural
// register mapping. The paper's injectors use simulator checkpoints to
// share the common prefix of injection runs; campaigns restore one
// checkpoint into many fresh machines and inject only faults whose start
// cycle lies beyond it.
type Checkpoint struct {
	// Tool is the Name of the machine that took the checkpoint. Restore
	// accepts no other: two tools, or one tool's two ISAs, can share every
	// array geometry and still disagree on the image and on what the
	// stored state means.
	Tool       string
	PC         uint64
	Cycle      uint64
	LastCommit uint64
	// Mem is a dirty-page/copy-on-write RAM image: checkpoints taken in
	// sequence on one machine (a checkpoint ladder) share every page the
	// run left untouched, so each capture after the first costs only the
	// pages dirtied since the previous one, and restores skip all-zero
	// pages entirely.
	Mem   *mem.PagedSnapshot
	Kern  kernel.Kernel
	Stats Stats

	L1I, L1D, L2 *cache.State
	DTLB, ITLB   *cache.TLBState
	// BTBInd is nil when one BTB serves direct and indirect branches.
	BTBDir, BTBInd *branch.BTBState
	Tour           *branch.TournamentState
	RAS            *branch.RASState
	IntRF, FPRF    *pipeline.RegFileState
}

// SizeBytes estimates the heap the checkpoint retains: RAM pages not
// shared with the previous rung and the cache contents. The TLB,
// predictor and register-file states are kilobytes and left out.
func (cp *Checkpoint) SizeBytes() int {
	return cp.Mem.SizeBytes() + cp.L1I.SizeBytes() + cp.L1D.SizeBytes() + cp.L2.SizeBytes()
}

// drained reports whether no speculative state is in flight.
func (c *CPU) drained() bool {
	return c.rob.Empty() && c.fetchQ.Len() == 0 && len(c.inflight) == 0 &&
		c.iq.Len() == 0 && c.lsq.Loads()+c.lsq.Stores() == 0
}

// RunTo simulates fault-free until the machine drains at or beyond the
// target cycle. It returns the cycle reached and whether the program
// finished before the target was reached (in which case no checkpoint
// can be taken).
func (c *CPU) RunTo(target uint64) (reached uint64, finished bool, err error) {
	limit := target*4 + 1_000_000
	for c.cycle < limit {
		c.commit()
		if c.finished {
			return c.cycle, true, nil
		}
		c.complete()
		c.issue()
		c.rename()
		if c.cycle < target {
			c.fetch()
		} else if c.drained() {
			c.cycle++
			c.stats.Cycles = c.cycle
			return c.cycle, false, nil
		}
		c.cycle++
		c.stats.Cycles = c.cycle
	}
	return c.cycle, false, fmt.Errorf("%s: machine did not drain by cycle %d", c.cfg.Pkg, limit)
}

// Checkpoint captures the drained machine. It returns an error when
// speculative state is still in flight.
func (c *CPU) Checkpoint() (any, error) {
	if !c.drained() {
		return nil, fmt.Errorf("%s: checkpoint requires a drained machine", c.cfg.Pkg)
	}
	cp := &Checkpoint{
		Tool:       c.cfg.Name,
		PC:         c.pc,
		Cycle:      c.cycle,
		LastCommit: c.lastCommit,
		Mem:        c.mem.SnapshotPaged(),
		Kern:       c.kern.Clone(),
		Stats:      c.stats,
		L1I:        c.l1i.State(),
		L1D:        c.l1d.State(),
		L2:         c.l2.State(),
		DTLB:       c.dtlb.State(),
		ITLB:       c.itlb.State(),
		BTBDir:     c.btbDir.State(),
		Tour:       c.tour.State(),
		RAS:        c.ras.State(),
		IntRF:      c.intRF.State(),
		FPRF:       c.fpRF.State(),
	}
	if c.splitBTB() {
		cp.BTBInd = c.btbInd.State()
	}
	return cp, nil
}

// Restore loads a checkpoint into this (freshly built) machine. The
// checkpoint is copied, so one checkpoint may seed many machines
// concurrently.
func (c *CPU) Restore(state any) error {
	cp, ok := state.(*Checkpoint)
	if !ok {
		return fmt.Errorf("%s: foreign checkpoint type %T", c.cfg.Pkg, state)
	}
	if cp.Tool != c.cfg.Name {
		return fmt.Errorf("%s: foreign checkpoint: taken on %s, this machine is %s", c.cfg.Pkg, cp.Tool, c.cfg.Name)
	}
	c.mem.RestorePaged(cp.Mem)
	c.kern = cp.Kern.Clone()
	c.stats = cp.Stats
	c.l1i.SetState(cp.L1I)
	c.l1d.SetState(cp.L1D)
	c.l2.SetState(cp.L2)
	c.dtlb.SetState(cp.DTLB)
	c.itlb.SetState(cp.ITLB)
	c.btbDir.SetState(cp.BTBDir)
	if c.splitBTB() {
		c.btbInd.SetState(cp.BTBInd)
	}
	c.tour.SetState(cp.Tour)
	c.ras.SetState(cp.RAS)
	c.intRF.SetState(cp.IntRF)
	c.fpRF.SetState(cp.FPRF)
	c.pc = cp.PC
	c.cycle = cp.Cycle
	c.lastCommit = cp.LastCommit
	c.rob.FlushAll()
	c.iq.FlushAll()
	c.lsq.FlushAll()
	c.fetchQ.Reset()
	c.inflight = c.inflight[:0]
	c.fetchBlocked = false
	c.fetchReady = c.cycle
	c.finished = false
	return nil
}
