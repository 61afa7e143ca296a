package ooo

import (
	"fmt"
	"unsafe"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/pipeline"
)

// Checkpoint is a complete state of a machine in flight, taken between
// two cycles: memory, kernel, every storage array, all front-end
// predictor state, the rename state, and everything the pipeline holds
// between its stages — the reorder buffer, the issue and load/store
// queues, the fetch queue, the operations in execution and a pending
// front-end stall. A machine restored from a checkpoint taken at cycle c
// runs on from c exactly as the machine it was taken on: the same
// cycles, accesses, commits and statistics. The paper's injectors use
// simulator checkpoints to share the common prefix of injection runs;
// campaigns restore one checkpoint into many fresh machines and inject
// only faults whose start cycle lies beyond it.
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
	ROB            *pipeline.ROBState
	IQ             *pipeline.IQState
	LSQ            *pipeline.LSQState

	// The core's own bookkeeping between stages (see CPU).
	fetchQ       []pipeline.FetchedUop
	fetchBlocked bool
	fetchReady   uint64
	inflight     []inflightOp
	rasSnaps     [][2]int
	instHeads    []bool
}

// SizeBytes is the heap the checkpoint retains beyond the RAM pages it
// shares with the previous rung of its ladder: every component — the
// pages it copied, kernel, caches, TLBs, predictors, register files,
// ROB, issue and load/store queues, fetch queue and the operations in
// execution.
func (cp *Checkpoint) SizeBytes() int {
	n := int(unsafe.Sizeof(*cp)) + cp.Mem.SizeBytes() +
		cap(cp.Kern.Output) + int(unsafe.Sizeof(kernel.Event{}))*cap(cp.Kern.Events) +
		cp.L1I.SizeBytes() + cp.L1D.SizeBytes() + cp.L2.SizeBytes() +
		cp.DTLB.SizeBytes() + cp.ITLB.SizeBytes() + cp.BTBDir.SizeBytes() + cp.Tour.SizeBytes() + cp.RAS.SizeBytes() +
		cp.IntRF.SizeBytes() + cp.FPRF.SizeBytes() + cp.ROB.SizeBytes() + cp.IQ.SizeBytes() + cp.LSQ.SizeBytes() +
		int(unsafe.Sizeof(pipeline.FetchedUop{}))*cap(cp.fetchQ) + int(unsafe.Sizeof(inflightOp{}))*cap(cp.inflight) +
		int(unsafe.Sizeof([2]int{}))*cap(cp.rasSnaps) + cap(cp.instHeads)
	if cp.BTBInd != nil {
		n += cp.BTBInd.SizeBytes()
	}
	return n
}

// RunTo runs the machine fault-free up to the start of the target
// cycle — Run's cycle loop, stopped at the target instead of at a cycle
// limit — so a checkpoint taken there is the machine in flight. It
// returns the cycle reached and whether the program finished first (in
// which case no checkpoint can be taken).
func (c *CPU) RunTo(target uint64) (reached uint64, finished bool, err error) {
	res := c.Run(target)
	switch {
	case c.finished:
		return c.cycle, true, nil
	case res.Status != core.RunCycleLimit || res.CommitStalled:
		return c.cycle, false, fmt.Errorf("%s: fault-free run to cycle %d stopped at %d: %v (%s)",
			c.cfg.Pkg, target, c.cycle, res.Status, res.AssertMsg)
	}
	return c.cycle, false, nil
}

// Checkpoint captures the machine as it stands between two cycles.
func (c *CPU) Checkpoint() (any, error) {
	cp := &Checkpoint{
		Tool:         c.cfg.Name,
		PC:           c.pc,
		Cycle:        c.cycle,
		LastCommit:   c.lastCommit,
		Mem:          c.mem.SnapshotPaged(),
		Kern:         c.kern.Clone(),
		Stats:        c.stats,
		L1I:          c.l1i.State(),
		L1D:          c.l1d.State(),
		L2:           c.l2.State(),
		DTLB:         c.dtlb.State(),
		ITLB:         c.itlb.State(),
		BTBDir:       c.btbDir.State(),
		Tour:         c.tour.State(),
		RAS:          c.ras.State(),
		IntRF:        c.intRF.State(),
		FPRF:         c.fpRF.State(),
		ROB:          c.rob.State(),
		IQ:           c.iq.State(),
		LSQ:          c.lsq.State(),
		fetchQ:       c.fetchQ.Snapshot(),
		fetchBlocked: c.fetchBlocked,
		fetchReady:   c.fetchReady,
		inflight:     append([]inflightOp(nil), c.inflight...),
		rasSnaps:     append([][2]int(nil), c.rasSnaps...),
		instHeads:    append([]bool(nil), c.instHeads...),
	}
	if c.splitBTB() {
		cp.BTBInd = c.btbInd.State()
	}
	return cp, nil
}

// Restore loads a checkpoint into this machine, whatever it held before.
// The checkpoint is copied, so one checkpoint may seed many machines
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
	c.rob.SetState(cp.ROB)
	c.iq.SetState(cp.IQ)
	c.lsq.SetState(cp.LSQ)
	c.fetchQ.Restore(cp.fetchQ)
	c.fetchBlocked = cp.fetchBlocked
	c.fetchReady = cp.fetchReady
	c.inflight = append(c.inflight[:0], cp.inflight...)
	copy(c.rasSnaps, cp.rasSnaps)
	copy(c.instHeads, cp.instHeads)
	c.pc = cp.PC
	c.cycle = cp.Cycle
	c.lastCommit = cp.LastCommit
	c.finished = false
	return nil
}
