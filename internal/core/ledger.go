package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/divergence"
	"repro/internal/fault"
)

// ErrRejectedRow is wrapped by every error a CellLedger returns for a
// row it refuses to settle: an unknown prune provenance, a replicated
// row whose representative is out of range, itself or another
// replicated row, or a shard result that repeats or omits an index.
var ErrRejectedRow = errors.New("rejected row")

// slot is a ledger's knowledge of one mask index.
type slot uint8

const (
	slotOpen      slot = iota
	slotJournaled      // open; a journaled stopped row awaits the re-derived stop
	slotHeld           // a replicated stub waiting for its representative
	slotSettled
	slotReplica // settled by resolving a replicated stub
)

// CellLedger is the settle table of one campaign cell: the cell's
// CellSinks, its records and — in a campaign that measures divergence —
// its divergence rows, and the one place the guarantee lives that
// a mask's record does not depend on how the campaign ran — one node, a
// fleet or a resume. Both drivers of a cell drive it: the matrix
// scheduler and the distributed coordinator. It settles every index
// exactly once (the first settle wins), holds a replicated stub until
// its representative is settled and then resolves it, settles a stopped
// cell's cancelled tail, checks that every in-window index is settled
// and builds the cell's CampaignResult.
//
// Settle is safe from many goroutines at distinct indices while no
// replicated stub is held, which is how the scheduler's execute stage
// commits: no lock sits in front of the journal's fsync. Everything
// else is single-goroutine; the coordinator calls the ledger under its
// own lock.
type CellLedger struct {
	sinks   CellSinks
	records []LogRecord
	// rows holds one divergence row per mask index, built at settle;
	// nil when the ledger keeps none.
	rows   []divergence.Record
	slots  []slot
	lo, hi int // the window of indices the ledger settles
	// waiting holds replicated stubs by their representative's index.
	waiting map[int][]ShardRun
	stopped bool // the stopped tail has been settled
}

// NewCellLedger returns the ledger of a cell of n masks whose settled
// outcomes go to sinks; with rows it also keeps each mask's divergence
// row, which its result carries.
func NewCellLedger(sinks CellSinks, n int, rows bool) *CellLedger {
	l := &CellLedger{sinks: sinks, records: make([]LogRecord, n), slots: make([]slot, n), hi: n}
	if rows {
		l.rows = make([]divergence.Record, n)
	}
	return l
}

// reject is a rejection naming the cell and the row.
func (l *CellLedger) reject(index int, format string, args ...any) error {
	return fmt.Errorf("core: %s mask index %d: %s: %w", l.sinks.Key, index, fmt.Sprintf(format, args...), ErrRejectedRow)
}

// check refuses a row the ledger cannot settle on its own terms.
func (l *CellLedger) check(run ShardRun) error {
	i, rep := run.Index, run.RepIndex
	switch {
	case i < l.lo || i >= l.hi:
		return l.reject(i, "outside the window [%d,%d)", l.lo, l.hi)
	case run.Pruned != "" && run.Pruned != "dead" && run.Pruned != "replicated":
		return l.reject(i, "unknown pruned value %q", run.Pruned)
	case run.Pruned != "replicated":
		return nil
	case rep < 0 || rep >= len(l.records):
		return l.reject(i, "rep_index %d outside the cell's %d masks", rep, len(l.records))
	case rep == i:
		return l.reject(i, "replicates itself")
	}
	return nil
}

// CheckRows checks a shard's result before any of it is committed: one
// row per index of the window [lo, hi), each one a row the ledger can
// settle.
func (l *CellLedger) CheckRows(lo, hi int, runs []ShardRun) error {
	seen := make([]bool, hi-lo)
	for _, run := range runs {
		switch {
		case run.Index < lo || run.Index >= hi:
			return l.reject(run.Index, "outside the shard window [%d,%d)", lo, hi)
		case seen[run.Index-lo]:
			return l.reject(run.Index, "repeated in one shard result")
		}
		seen[run.Index-lo] = true
		if err := l.check(run); err != nil {
			return err
		}
	}
	if m := slices.Index(seen, false); m >= 0 {
		return l.reject(lo+m, "missing from its shard's result")
	}
	return nil
}

// Settle settles one outcome through the cell's sinks (see
// CellSinks.Commit for dispatched) unless its index is already settled.
// A replicated stub is resolved against its representative's record, or
// held until that record is settled.
func (l *CellLedger) Settle(run ShardRun, dispatched bool) error {
	if err := l.check(run); err != nil {
		return err
	}
	i, rep := run.Index, run.RepIndex
	switch {
	case l.slots[i] >= slotHeld:
		return nil // the first settle wins
	case run.Pruned != "replicated":
		if err := l.settle(run, slotSettled, dispatched); err != nil {
			return err
		}
		stubs := l.waiting[i] // nil, and no write, while no stub is held
		delete(l.waiting, i)
		for _, stub := range stubs {
			if err := l.resolve(stub); err != nil {
				return err
			}
		}
		return nil
	case l.slots[rep] == slotHeld || l.slots[rep] == slotReplica:
		return l.reject(i, "replicates mask index %d, itself a replicated row", rep)
	case len(l.waiting[i]) > 0:
		return l.reject(l.waiting[i][0].Index, "replicates mask index %d, itself a replicated row", i)
	case l.slots[rep] == slotSettled:
		return l.resolve(run)
	}
	if l.waiting == nil {
		l.waiting = make(map[int][]ShardRun)
	}
	l.waiting[rep] = append(l.waiting[rep], run)
	l.slots[i] = slotHeld
	return nil
}

// resolve settles a replicated stub with its settled representative's
// verdict.
func (l *CellLedger) resolve(stub ShardRun) error {
	return l.settle(stub.Resolve(l.records[stub.RepIndex]), slotReplica, false)
}

func (l *CellLedger) settle(run ShardRun, s slot, dispatched bool) error {
	l.records[run.Index] = run.Record
	l.slots[run.Index] = s
	if l.rows != nil {
		l.rows[run.Index] = run.divergenceRow(l.sinks.Key)
	}
	return l.sinks.Commit(run, dispatched)
}

// Flush appends the journal lines the ledger's sinks queued under
// GroupCommit (see CellSinks.Flush).
func (l *CellLedger) Flush() error { return l.sinks.Flush() }

// Journaled notes that the journal holds a stopped-early row for run's
// index. It settles nothing — a stop row never counts as a completion —
// but when the re-derived stop decision cancels the index, its row is
// settled flagged Resumed and is not journaled again.
func (l *CellLedger) Journaled(run ShardRun) {
	if l.check(run) == nil && l.slots[run.Index] == slotOpen {
		l.slots[run.Index] = slotJournaled
	}
}

// Known reports whether the ledger settled index m, holds it as a
// replicated stub or knows a journaled stopped row for it.
func (l *CellLedger) Known(m int) bool { return l.slots[m] != slotOpen }

// SettleStopped settles, once the cell's rule has stopped, every
// in-window index the stop cancelled — simulated, pruned or queued
// alike, which keeps a fleet that cannot know a shard's plan identical
// to one node — as a StoppedRun of its mask; rows already settled keep
// their outcome and journaled ones are flagged Resumed. It reports the
// stop to the collector. Later calls do nothing.
func (l *CellLedger) SettleStopped(rule *StopRule, masks []fault.Mask) error {
	if !rule.Stopped() || l.stopped {
		return nil
	}
	l.stopped = true
	if tel := l.sinks.Telemetry; tel != nil {
		tel.CellStopped(rule.Info().EffectiveMargin)
	}
	for m := l.lo; m < l.hi; m++ {
		if l.slots[m] >= slotHeld || !rule.Cancelled(m) {
			continue
		}
		run := StoppedRun(m, masks[m])
		run.Resumed = l.slots[m] == slotJournaled
		if err := l.Settle(run, false); err != nil {
			return err
		}
	}
	return nil
}

// Result checks that every in-window index is settled — a replicated
// row whose representative never settled is not — and builds the cell's
// result, with rule's AdaptiveInfo; a rule that never stopped reports
// its margin to the collector.
func (l *CellLedger) Result(golden GoldenInfo, rule *StopRule) (*CampaignResult, error) {
	if m := slices.IndexFunc(l.slots[l.lo:l.hi], func(s slot) bool { return s < slotSettled }); m >= 0 {
		return nil, fmt.Errorf("core: %s mask index %d never settled", l.sinks.Key, l.lo+m)
	}
	info := rule.Info()
	if tel := l.sinks.Telemetry; tel != nil && info != nil && !info.StoppedEarly {
		tel.ObserveCellMargin(info.EffectiveMargin)
	}
	return &CampaignResult{Golden: golden, Records: l.records, Adaptive: info, Divergence: l.rows}, nil
}
