package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// ShardRun is the outcome of one settled mask: the log record plus the
// trace provenance, telemetry extras and divergence footprint every
// sink projects its row from. The scheduler builds one per mask through
// the constructor of the mask's provenance (simulated, dead, replicated
// + Resolve, StoppedRun, ReplayJournal) and settles it in the cell's
// CellLedger; a shard executor returns its window of outcomes
// uncommitted, which makes this the wire format too. A replicated row
// travels as a stub carrying only its identity (the representative may
// live in another shard) until Resolve gives it the representative's
// verdict.
type ShardRun struct {
	// Index is the mask index within the campaign cell.
	Index int `json:"index"`
	// Record is the completed log record; for an unresolved replicated
	// stub only MaskID, Sites and Weight are meaningful.
	Record LogRecord `json:"record"`
	// Pruned is "" (simulated), "dead" or "replicated"; RepIndex names
	// the representative's mask index for replicated rows.
	Pruned   string `json:"pruned,omitempty"`
	RepIndex int    `json:"rep_index,omitempty"`
	// Trace provenance of simulated rows (see fault.TraceRecord).
	Observed      bool   `json:"observed,omitempty"`
	FirstObsCycle uint64 `json:"first_obs_cycle,omitempty"`
	EarlyStop     string `json:"early_stop,omitempty"`
	// Telemetry extras of simulated rows.
	WallNS         int64  `json:"wall_ns,omitempty"`
	WatchedReads   uint64 `json:"watched_reads,omitempty"`
	WatchedWrites  uint64 `json:"watched_writes,omitempty"`
	ObservedReads  uint64 `json:"observed_reads,omitempty"`
	ObservedWrites uint64 `json:"observed_writes,omitempty"`
	LadderRestored bool   `json:"ladder_restored,omitempty"`
	RungCycle      uint64 `json:"rung_cycle,omitempty"`
	Windowed       bool   `json:"windowed,omitempty"`
	WindowEntered  bool   `json:"window_entered,omitempty"`
	WindowExited   bool   `json:"window_exited,omitempty"`
	FastSteps      uint64 `json:"fast_steps,omitempty"`
	DetailCycles   uint64 `json:"detail_cycles,omitempty"`
	// Divergence provenance of simulated rows (configs with Divergence
	// on; all additive, so protocol version 1 peers interoperate).
	Diverged          bool     `json:"diverged,omitempty"`
	DivergeCycle      uint64   `json:"diverge_cycle,omitempty"`
	DivergeIndex      uint64   `json:"diverge_index,omitempty"`
	FaultTouches      uint64   `json:"fault_touches,omitempty"`
	LastTouchCycle    uint64   `json:"last_touch_cycle,omitempty"`
	CorruptStructures []string `json:"corrupt_structures,omitempty"`

	// Resumed marks an outcome replayed from a journal rather than
	// simulated or received from a worker, and RepMask is the
	// representative's mask ID of a resolved replicated row — both are
	// bookkeeping of the settling process, never on the wire.
	Resumed bool `json:"-"`
	RepMask int  `json:"-"`
}

// ShardResult is the outcome of one executed shard: the golden header
// of the cell (identical from every shard — deterministic simulators)
// and one run per mask of the window.
type ShardResult struct {
	Golden GoldenInfo `json:"golden"`
	Runs   []ShardRun `json:"runs"`
}

// Stopped reports whether the outcome is a stopped-early provenance row.
func (r ShardRun) Stopped() bool { return r.Record.Status == RunStopped.String() }

// windowHeld reports whether the outcome is a windowed run that reached
// the end of the program or the cycle limit with its detail window
// still open: cycle-accurate to the end, the cost the window exists to
// avoid.
func (r ShardRun) windowHeld() bool {
	return r.Windowed && !r.WindowExited &&
		(r.Record.Status == RunCompleted.String() || r.Record.Status == RunCycleLimit.String())
}

// Class is the default parser's classification of the outcome.
func (r ShardRun) Class() Class {
	cls, _ := (Parser{}).Classify(r.Record)
	return cls
}

// simulated is the outcome of a run this process simulated. stats is nil
// when nothing is attached that reads the extras; the outcome is then
// the bare record.
func simulated(index int, rec LogRecord, stats *runStats, wall time.Duration) ShardRun {
	run := ShardRun{Index: index, Record: rec}
	if stats == nil {
		return run
	}
	run.Observed, run.FirstObsCycle = stats.observed, stats.firstObs
	if rec.Status == RunEarlyMasked.String() {
		run.EarlyStop = stats.earlyStopReason()
	}
	run.WallNS = int64(wall)
	run.WatchedReads, run.WatchedWrites = stats.reads, stats.writes
	run.ObservedReads, run.ObservedWrites = stats.obsReads, stats.obsWrites
	run.LadderRestored, run.RungCycle = stats.restored, stats.rungCycle
	run.Windowed, run.WindowEntered, run.WindowExited = stats.windowed, stats.windowEntered, stats.windowExited
	run.FastSteps, run.DetailCycles = stats.fastSteps, stats.detailCycles
	run.FaultTouches, run.LastTouchCycle = stats.touches, stats.lastTouch
	run.CorruptStructures = stats.corrupt
	if stats.div != nil {
		run.Diverged, run.DivergeCycle, run.DivergeIndex = stats.div.Diverged()
	}
	return run
}

// dead is the outcome of a mask the prune plan proved masked: the
// identical-prefix argument shows the run would complete with the
// golden output, so the record reports the golden hash, a match, and
// the distinguished "pruned" status (classified Masked). Cycles stay
// zero — nothing was simulated.
func dead(index int, m fault.Mask, golden GoldenInfo) ShardRun {
	return ShardRun{Index: index, Pruned: "dead", Record: LogRecord{
		MaskID:      m.ID,
		Sites:       m.Sites,
		Status:      RunPruned.String(),
		OutputHash:  golden.OutputHash,
		OutputMatch: true,
		Weight:      m.Weight,
	}}
}

// replicated is the stub of a mask the prune plan collapsed onto the
// representative at mask index rep: the mask's own identity and
// sampling weight, no verdict yet.
func replicated(index int, m fault.Mask, rep int) ShardRun {
	return ShardRun{Index: index, Pruned: "replicated", RepIndex: rep,
		Record: LogRecord{MaskID: m.ID, Sites: m.Sites, Weight: m.Weight}}
}

// Resolve completes a replicated stub with its representative's settled
// record: the representative's verdict under the stub's own mask ID,
// sites and sampling weight.
func (r ShardRun) Resolve(rep LogRecord) ShardRun {
	id, sites, weight := r.Record.MaskID, r.Record.Sites, r.Record.Weight
	r.RepMask = rep.MaskID
	r.Record = rep
	r.Record.MaskID, r.Record.Sites, r.Record.Weight = id, sites, weight
	return r
}

// divergenceRow is the outcome's divergence-provenance row in campaign
// key, depth fields derived.
func (r ShardRun) divergenceRow(key string) divergence.Record {
	d := divergence.Record{
		Campaign:          key,
		MaskID:            r.Record.MaskID,
		Status:            r.Record.Status,
		Class:             string(r.Class()),
		Cycles:            r.Record.Cycles,
		Observed:          r.Observed,
		FirstObsCycle:     r.FirstObsCycle,
		FaultTouches:      r.FaultTouches,
		LastTouchCycle:    r.LastTouchCycle,
		CorruptStructures: r.CorruptStructures,
		Diverged:          r.Diverged,
		DivergeCycle:      r.DivergeCycle,
		DivergeIndex:      r.DivergeIndex,
		Pruned:            r.Pruned,
		Resumed:           r.Resumed,
	}
	d.Derive()
	return d
}

// StoppedRun is the outcome of a mask the cell's stopping rule
// cancelled: provenance only — no outcome, no cycles, no output hash.
// The mask's coordinates and sampling weight are preserved so resume,
// smokecheck and the report reweighting see the full mask population.
func StoppedRun(index int, m fault.Mask) ShardRun {
	return ShardRun{Index: index, Record: LogRecord{
		MaskID: m.ID,
		Sites:  m.Sites,
		Status: RunStopped.String(),
		Weight: m.Weight,
	}}
}

// ReplayJournal turns the journal lines of campaign key into resumed
// outcomes, by mask index: the journaled record plus the trace and
// divergence provenance the line carries, flagged Resumed. Lines of other
// campaigns are skipped and the last line of a mask wins. A line whose
// mask is not in the population, or was taken with different fault
// sites, means the journal belongs to another mask set and fails the
// replay. Stopped-early rows come back like any other (see
// ShardRun.Stopped): callers settle them but must not feed them to a
// stopping rule, which re-derives its decision from the real
// completions alone.
func ReplayJournal(key string, entries []fault.JournalEntry, masks []fault.Mask) (map[int]ShardRun, error) {
	var indexOf map[int]int
	out := make(map[int]ShardRun)
	for k := range entries {
		e := &entries[k]
		if e.Campaign != key {
			continue
		}
		if indexOf == nil {
			indexOf = make(map[int]int, len(masks))
			for i, m := range masks {
				indexOf[m.ID] = i
			}
		}
		index, ok := indexOf[e.MaskID]
		if !ok {
			return nil, fmt.Errorf("core: stale journal for %s: mask %d is not in the campaign's population of %d", key, e.MaskID, len(masks))
		}
		var rec LogRecord
		if err := json.Unmarshal(e.Record, &rec); err != nil {
			return nil, fmt.Errorf("core: journal record for %s mask %d: %w", key, e.MaskID, err)
		}
		if !reflect.DeepEqual(rec.Sites, masks[index].Sites) {
			return nil, fmt.Errorf("core: stale journal for %s: mask %d was taken with different fault sites", key, e.MaskID)
		}
		out[index] = ShardRun{
			Index: index, Record: rec,
			Observed: e.Observed, FirstObsCycle: e.FirstObsCycle, EarlyStop: e.EarlyStop,
			FaultTouches: e.FaultTouches, LastTouchCycle: e.LastTouchCycle, CorruptStructures: e.CorruptStructures,
			Diverged: e.Diverged, DivergeCycle: e.DivergeCycle, DivergeIndex: e.DivergeIndex,
			Resumed: true,
		}
	}
	return out, nil
}

// CellSinks are the places the settled masks of one campaign cell go
// besides the cell's ledger, which holds the records and divergence rows;
// every field but Key may be nil. Row is the cell's registered telemetry
// row and is set whenever Telemetry is.
type CellSinks struct {
	Key       string
	Telemetry *telemetry.Collector
	Row       *telemetry.CampaignStats
	Journal   *fault.Journal
	// GroupCommit makes Commit queue its journal lines, in commit order,
	// instead of appending each; Flush appends the queue with one write
	// and one fsync. The caller flushes before it acknowledges anything
	// the queued runs decided — the coordinator, once per merged shard.
	GroupCommit bool
	queued      []fault.JournalEntry
}

// Flush appends the journal lines Commit queued under GroupCommit, in
// one Journal.Append.
func (s *CellSinks) Flush() error {
	if len(s.queued) == 0 {
		return nil
	}
	err := s.Journal.Append(s.queued...)
	s.queued = s.queued[:0]
	if err != nil {
		return fmt.Errorf("core: journaling %s: %w", s.Key, err)
	}
	return nil
}

// Commit settles one outcome: it is the one place a mask becomes a
// journal line and a run-end event (the trace row is
// the trace sink's projection of that event). Simulated and stopped
// outcomes journal — the line is fsync'd before anything else sees the
// run (under GroupCommit, before the caller acknowledges the batch), so
// a crash can only lose runs a resume will redo; pruned
// outcomes never do (the deterministic plan re-settles them) and
// neither do resumed ones (their line is already on disk). dispatched
// says the scheduler counted the run as started when it handed it to a
// worker; every other outcome starts and ends here.
func (s *CellSinks) Commit(run ShardRun, dispatched bool) error {
	rec := &run.Record
	if s.Journal != nil && run.Pruned == "" && !run.Resumed {
		raw, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("core: journaling %s mask %d: %w", s.Key, rec.MaskID, err)
		}
		e := fault.JournalEntry{
			Campaign: s.Key, MaskID: rec.MaskID, Record: raw,
			Observed: run.Observed, FirstObsCycle: run.FirstObsCycle, EarlyStop: run.EarlyStop,
			StoppedEarly: run.Stopped(),
			FaultTouches: run.FaultTouches, LastTouchCycle: run.LastTouchCycle, CorruptStructures: run.CorruptStructures,
			Diverged: run.Diverged, DivergeCycle: run.DivergeCycle, DivergeIndex: run.DivergeIndex,
		}
		if s.GroupCommit {
			s.queued = append(s.queued, e)
		} else if err := s.Journal.Append(e); err != nil {
			return err
		}
	}
	if s.Telemetry == nil {
		return nil
	}
	repMask := -1
	if run.Pruned == "replicated" {
		repMask = run.RepMask
	}
	if !dispatched {
		s.Telemetry.RunStarted()
	}
	s.Telemetry.RunDone(s.Row, telemetry.RunEvent{
		Campaign:       s.Key,
		Tool:           s.Row.Tool,
		Benchmark:      s.Row.Benchmark,
		Structure:      s.Row.Structure,
		MaskID:         rec.MaskID,
		Sites:          rec.Sites,
		Status:         rec.Status,
		Class:          string(run.Class()),
		Cycles:         rec.Cycles,
		Wall:           time.Duration(run.WallNS),
		Observed:       run.Observed,
		FirstObsCycle:  run.FirstObsCycle,
		EarlyStop:      run.EarlyStop,
		WatchedReads:   run.WatchedReads,
		WatchedWrites:  run.WatchedWrites,
		ObservedReads:  run.ObservedReads,
		ObservedWrites: run.ObservedWrites,
		Pruned:         run.Pruned,
		RepMask:        repMask,
		LadderRestored: run.LadderRestored,
		RungCycle:      run.RungCycle,
		Resumed:        run.Resumed,
		Windowed:       run.Windowed,
		WindowEntered:  run.WindowEntered,
		WindowExited:   run.WindowExited,
		WindowHeld:     run.windowHeld(),
		FastSteps:      run.FastSteps,
		DetailCycles:   run.DetailCycles,
		Diverged:       run.Diverged,
		Stopped:        run.Stopped(),
	})
	return nil
}
