package core

import (
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/fault"
)

// PanicError is the per-run error a contained worker panic is converted
// into: the scheduler's recover boundary catches any non-AssertError
// panic escaping a run (simulator internals, mask arming, checkpoint
// restore) and fails that one run deterministically instead of aborting
// the whole campaign process.
type PanicError struct {
	MaskID int
	Value  any
	Stack  []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: mask %d: contained panic: %v", e.MaskID, e.Value)
}

// runContained is runInjection behind a recover boundary. An escaped
// AssertError — a simulator-internal assertion the simulator's own Run
// recovery did not see, e.g. one firing during mask arming — is
// classified as a RunAssert record, keeping the campaign alive; any
// other panic becomes a PanicError the scheduler surfaces through its
// deterministic first-error ordering.
func runContained(f Factory, rungs []LadderRung, m fault.Mask, golden GoldenInfo, timeoutFactor uint64, earlyStop bool, win *windowConfig, fk *fork, ff *ffLadder, stats *runStats) (rec LogRecord, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if ae, ok := r.(AssertError); ok {
			rec = LogRecord{
				MaskID:     m.ID,
				Sites:      m.Sites,
				Status:     RunAssert.String(),
				OutputHash: hashOutput(nil),
				AssertMsg:  ae.Msg,
			}
			err = nil
			return
		}
		rec = LogRecord{}
		err = &PanicError{MaskID: m.ID, Value: r, Stack: debug.Stack()}
	}()
	return runInjection(f, rungs, m, golden, timeoutFactor, earlyStop, win, fk, ff, stats)
}

// wallTimeoutRecord is the record of a run that exceeded the wall-clock
// backstop: the simulator never reported back, so the run is classified
// like a commit-stalled cycle-limit run — Timeout with the deadlock
// detail — which is what a wedged machine is.
func wallTimeoutRecord(m fault.Mask) LogRecord {
	return LogRecord{
		MaskID:        m.ID,
		Sites:         m.Sites,
		Status:        RunCycleLimit.String(),
		OutputHash:    hashOutput(nil),
		CommitStalled: true,
	}
}

// runGuarded is the scheduler's per-run execution boundary: containment
// always, plus — when wallLimit is positive — a wall-clock deadline
// backstopping the cycle-budget timeout. A run that overruns the
// deadline is classified Timeout and its goroutine abandoned (it keeps
// its own private runStats so the worker slot can move on without a data
// race); the cycle budget bounds simulated time, the wall limit bounds
// host time when a simulator bug stops cycles from advancing at all.
func runGuarded(f Factory, rungs []LadderRung, m fault.Mask, golden GoldenInfo, timeoutFactor uint64, earlyStop bool, win *windowConfig, fk *fork, ff *ffLadder, wallLimit time.Duration, stats *runStats) (LogRecord, error) {
	if wallLimit <= 0 {
		return runContained(f, rungs, m, golden, timeoutFactor, earlyStop, win, fk, ff, stats)
	}
	type result struct {
		rec   LogRecord
		err   error
		stats *runStats
	}
	ch := make(chan result, 1)
	go func() {
		var inner *runStats
		if stats != nil {
			// The commit probe and the footprint request ride into the
			// contained run; the normal path's copy-back returns them
			// unchanged.
			inner = &runStats{div: stats.div, footprint: stats.footprint}
		}
		rec, err := runContained(f, rungs, m, golden, timeoutFactor, earlyStop, win, fk, ff, inner)
		ch <- result{rec, err, inner}
	}()
	timer := time.NewTimer(wallLimit)
	defer timer.Stop()
	select {
	case res := <-ch:
		if stats != nil && res.stats != nil {
			*stats = *res.stats
		}
		return res.rec, res.err
	case <-timer.C:
		if stats != nil {
			// The abandoned goroutine keeps folding commits into the
			// probe; drop our reference so the caller never reads racing
			// state. The wall-timeout record carries no divergence
			// verdict — host-timing verdicts are nondeterministic anyway.
			stats.div = nil
		}
		return wallTimeoutRecord(m), nil
	}
}
