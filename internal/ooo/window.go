package ooo

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/bitarray"
	"repro/internal/core"
	"repro/internal/handoff"
	"repro/internal/isa"
)

// This file implements the core.Windower capability: detail-window
// execution, where the scheduler runs this cycle-accurate core only
// inside a window around the fault and hands architectural state to and
// from the functional tier at the window edges.

// Image returns the program image the machine was booted with; the
// scheduler seeds functional-tier machines from it.
func (c *CPU) Image() *asm.Image { return c.img }

// drained reports whether no speculative state is in flight: the state
// the window's exit waits for, so an architectural capture is complete.
func (c *CPU) drained() bool {
	return c.rob.Empty() && c.fetchQ.Len() == 0 && len(c.inflight) == 0 &&
		c.iq.Len() == 0 && c.lsq.Loads()+c.lsq.Stores() == 0
}

// CaptureArch snapshots the architecturally visible machine state for a
// handoff to the functional tier. The machine must be drained (nothing
// speculative in flight), so the committed register mapping, RAM and
// kernel state are the complete reachable state once RAM is
// authoritative. With dual-copy caches it always is and FlushDirty is a
// no-op. True write-back arrays hold the only copy of dirty lines, so
// the capture first flushes L1D into L2 and L2 into RAM; the flush
// writes each dirty line at the address its stored tag names,
// corruption included, exactly as the eventual eviction would have. L1I
// never holds dirty lines.
func (c *CPU) CaptureArch() (*handoff.State, error) {
	if !c.drained() {
		return nil, fmt.Errorf("%s: architectural capture requires a drained machine", c.cfg.Pkg)
	}
	c.l1d.FlushDirty()
	c.l2.FlushDirty()
	st := &handoff.State{
		PC:        c.pc,
		Mem:       c.mem.SnapshotPaged(),
		Kern:      c.kern.Clone(),
		Cycle:     c.cycle,
		Committed: c.stats.CommittedInstrs,
	}
	for i := 0; i < isa.NumIntRegs; i++ {
		st.IntRegs[i] = c.intRF.ReadArch(i)
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		st.FPRegs[i] = c.fpRF.ReadArch(i)
	}
	return st, nil
}

// SeedArch loads an architectural state captured on the functional tier
// into this freshly booted machine: RAM, kernel, committed registers,
// PC and the time base. Microarchitectural state (caches, predictors)
// stays cold — the scheduler's pre-fault margin absorbs the warm-up.
// Call it before arming faults.
func (c *CPU) SeedArch(st *handoff.State) {
	c.mem.RestorePaged(st.Mem)
	c.kern = st.Kern.Clone()
	for i := 0; i < isa.NumIntRegs; i++ {
		c.intRF.WriteArch(i, st.IntRegs[i])
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		c.fpRF.WriteArch(i, st.FPRegs[i])
	}
	c.pc = st.PC
	c.cycle = st.Cycle
	c.lastCommit = st.Cycle
	c.stats.Cycles = st.Cycle
	c.stats.CommittedInstrs = st.Committed
	c.fetchReady = st.Cycle
}

// RunWindow runs the cycle-accurate detail window: like Run, but once
// the fault machinery can no longer change any cell
// (bitarray.FaultsApplied: every flip applied, no stuck-at window still
// forcing), postMargin further cycles have elapsed, and no residual
// corruption can still serve from a cache or TLB (the rule is
// cache.Hierarchy.CaptureSafe), fetch stops, the pipeline drains, and the
// method returns exited=true — the caller continues the run on the
// functional tier from CaptureArch state. A
// live unread transient in a pipeline structure does not hold the
// window open: on a drained machine its corruption is ordinary stored
// state that the architectural capture carries over exactly. Any
// terminal outcome inside the window (completion, crash, early-masked
// stop, deadlock, cycle limit) returns exited=false with the final
// result, exactly as Run would.
func (c *CPU) RunWindow(limitCycles, postMargin uint64) (res core.RunResult, exited bool) {
	defer func() {
		if r := recover(); r != nil {
			if ae, ok := r.(core.AssertError); ok {
				res = c.snapshotResult(core.RunAssert)
				res.AssertMsg = ae.Msg
				exited = false
				return
			}
			res = c.snapshotResult(core.RunSimCrash)
			res.AssertMsg = fmt.Sprint(r)
			exited = false
		}
	}()

	const deadlockWindow = 100_000
	applied, closing := false, false
	var appliedCycle uint64
	for c.cycle < limitCycles {
		allApplied := true
		for _, a := range c.watch {
			st := a.Tick(c.cycle)
			if c.earlyStop && (st == bitarray.StatusOverwritten || st == bitarray.StatusSkippedInvalid) {
				return c.snapshotResult(core.RunEarlyMasked), false
			}
			if !applied && !a.FaultsApplied() {
				allApplied = false
			}
		}
		if !applied && allApplied && len(c.watch) > 0 {
			applied, appliedCycle = true, c.cycle
		}
		if applied && !closing && c.cycle >= appliedCycle+postMargin && c.hier.CaptureSafe(c.watch) {
			closing = true
		}
		c.commit()
		if c.finished {
			return c.result, false
		}
		c.complete()
		c.issue()
		c.rename()
		if closing {
			if c.drained() {
				c.cycle++
				c.stats.Cycles = c.cycle
				return core.RunResult{}, true
			}
		} else {
			c.fetch()
		}
		c.cycle++
		c.stats.Cycles = c.cycle
		if c.cycle-c.lastCommit > deadlockWindow {
			r := c.snapshotResult(core.RunCycleLimit)
			r.CommitStalled = true
			return r, false
		}
	}
	r := c.snapshotResult(core.RunCycleLimit)
	r.CommitStalled = c.cycle-c.lastCommit > deadlockWindow
	return r, false
}
