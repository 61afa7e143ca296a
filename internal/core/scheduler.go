package core

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/divergence"
	"repro/internal/interp"
	"repro/internal/telemetry"
)

// scheduledRun is one injection run of the flattened matrix queue.
type scheduledRun struct {
	cell int // index into the specs (and the plan's cells)
	mask int // index into that spec's mask slice
	// check is the index of a guard re-run in its cell's checks (its
	// record stored outside the records), or -1 for a normal run.
	check int
}

// matrixRun is one pass of the scheduler over a planned matrix: the
// queue, and per cell the ledger execute and settle commit to.
type matrixRun struct {
	cfg   CampaignConfig
	specs []CampaignSpec
	att   Attach
	plan  *matrixPlan
	// shard keeps every window's outcomes, in mask order, for the caller
	// (kept) and leaves replicated masks unresolved stubs: their
	// representative may live in another window.
	shard bool

	// queue is every injection run, cell-major and mask-minor, with each
	// cell's guard checks riding behind its masks; their records land in
	// checkRecs, never in the results.
	// With no window and no stopping rule it is then ordered by row and
	// first fault (see newMatrixRun).
	queue []scheduledRun
	// forks holds each cell's row fork point; the cells of one {tool,
	// benchmark} row share it.
	forks     []*forkRow
	workers   int
	ledgers   []*CellLedger
	kept      [][]ShardRun
	checkRecs [][]LogRecord
	cellSpans []*telemetry.ActiveSpan
}

// runMatrix is the scheduler core behind RunConfig and RunShard: a set
// of {tool, benchmark, structure} cells executed as one flattened work
// queue on a single shared worker pool, so short campaigns never
// serialize behind long ones, in three stages. Plan (planMatrix) decides
// how every mask will be settled from the golden cache and the journal's
// past entries alone. Execute runs the masks disposed to simulate, plus
// the guard checks, and settles each finished run before its worker
// moves on. Settle settles what the stop decisions and the plan decided
// without simulation and compares the guard checks. Every in-window mask
// is settled exactly once, as the outcome its provenance constructor
// builds (see ShardRun), through its cell's CellLedger, which builds the
// results (results). windows, when non-nil, is the shard mode: one mask
// window per spec, its outcomes kept for the caller (kept).
//
// On a worker error the pool cancels promptly — in-flight runs finish,
// queued runs are abandoned — and the error of the earliest queued run
// that failed is returned. Each run executes behind a containment
// boundary: a panic escaping the simulator or the fault-arming path is
// converted into that run's error (surfaced through the same
// deterministic first-error ordering) instead of aborting the process.
func runMatrix(cfg CampaignConfig, specs []CampaignSpec, att Attach, cache *GoldenCache, windows []maskWindow) (*matrixRun, error) {
	// Span tracing: the matrix is one campaign span; the whole plan stage
	// is covered by one "golden" phase child, and each cell gets a span
	// the run spans parent on.
	tr := att.Tracer
	var matrixSpan, goldenSpan *telemetry.ActiveSpan
	if tr != nil {
		matrixSpan = tr.Begin(telemetry.SpanCampaign, "matrix", att.TraceParent)
		goldenSpan = tr.Begin(telemetry.SpanPhase, "golden", matrixSpan.ID())
	}
	plan, err := planMatrix(cfg, specs, att, cache, windows)
	if err != nil {
		return nil, err
	}
	r := newMatrixRun(cfg, specs, att, cache, plan, windows != nil)
	if tr != nil {
		goldenSpan.End()
		r.cellSpans = make([]*telemetry.ActiveSpan, len(specs))
		for i := range specs {
			r.cellSpans[i] = tr.Begin(telemetry.SpanCell, plan.cells[i].key, matrixSpan.ID())
		}
	}
	if err := r.execute(); err != nil {
		return nil, err
	}
	if err := r.settle(); err != nil {
		return nil, err
	}
	if tr != nil {
		for i := range specs {
			key := plan.cells[i].key
			r.cellSpans[i].End(func(sp *telemetry.Span) { sp.Campaign = key })
		}
		matrixSpan.End()
	}
	return r, nil
}

// newMatrixRun lays a plan out for execution: the flattened queue, the
// plan's stopping rules prefed with the journaled completions, and one
// CellLedger per cell, its campaign row registered up front so the run
// path never allocates or locks.
func newMatrixRun(cfg CampaignConfig, specs []CampaignSpec, att Attach, cache *GoldenCache, plan *matrixPlan, shard bool) *matrixRun {
	n := len(specs)
	r := &matrixRun{
		cfg: cfg, specs: specs, att: att, plan: plan, shard: shard,
		ledgers:   make([]*CellLedger, n),
		checkRecs: make([][]LogRecord, n),
	}
	if shard {
		r.kept = make([][]ShardRun, n)
	}
	totalMasks := 0
	tel := att.Telemetry
	for i, spec := range specs {
		c := &plan.cells[i]
		// A shard attaches no sink but the tracer and keeps no divergence
		// rows: its outcomes carry the provenance to the coordinator.
		sinks := CellSinks{Key: c.key, Journal: att.Journal}
		if tel != nil {
			sinks.Telemetry, sinks.Row = tel, tel.Campaign(c.key, spec.Tool, spec.Benchmark, spec.Structure)
		}
		r.ledgers[i] = NewCellLedger(sinks, len(spec.Masks), cfg.Divergence && !shard)
		r.ledgers[i].lo, r.ledgers[i].hi = c.win.lo, c.win.hi
		if shard {
			r.kept[i] = make([]ShardRun, c.win.hi-c.win.lo)
		}
		totalMasks += c.win.hi - c.win.lo
		for m, d := range c.disp {
			if d.kind == dispSimulate {
				r.queue = append(r.queue, scheduledRun{cell: i, mask: m, check: -1})
			}
		}
		r.checkRecs[i] = make([]LogRecord, len(c.checks))
		for j, k := range c.checks {
			r.queue = append(r.queue, scheduledRun{cell: i, mask: k.mask, check: j})
		}
	}

	// One fork point per {tool, benchmark} row, counting the row's
	// unwindowed runs. With no window and no stopping rule the queue is
	// ordered by (row in first-appearance order, first fault, position):
	// each row's runs then fork in turn further up one fault-free chain,
	// the longest runs first. A stopping rule gates dispatch on mask
	// order, so an adaptive queue keeps it; its runs still fork.
	r.forks = make([]*forkRow, n)
	rank := make([]int, n)
	rows := make(map[goldenKey]int)
	var rowForks []*forkRow
	for i, spec := range specs {
		k := goldenKey{spec.Tool, spec.Benchmark}
		if _, ok := rows[k]; !ok {
			rows[k] = len(rowForks)
			rowForks = append(rowForks, &forkRow{})
		}
		rank[i] = rows[k]
		r.forks[i] = rowForks[rank[i]]
	}
	for _, q := range r.queue {
		if r.window(q) == nil {
			r.forks[q.cell].pending++
		}
	}
	if plan.win == nil && cfg.StopMargin <= 0 {
		slices.SortStableFunc(r.queue, func(a, b scheduledRun) int {
			return cmp.Or(cmp.Compare(rank[a.cell], rank[b.cell]),
				cmp.Compare(minSiteCycle(specs[a.cell].Masks[a.mask]), minSiteCycle(specs[b.cell].Masks[b.mask])))
		})
	}

	// Journaled completions are prefed to the stopping rules (stopped
	// provenance rows excluded — they are settled outcomes of the previous
	// process's stop decision, which this process re-derives from the real
	// completions alone), so a resumed campaign re-evaluates the rule at
	// the same boundaries over the same class multisets and stops at the
	// identical point.
	for i := range plan.cells {
		for _, run := range plan.cells[i].resumed {
			if !run.Stopped() {
				plan.cells[i].stop.Note(run.Index, string(run.Class()))
			}
		}
	}

	r.workers = cfg.Workers
	if r.workers <= 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	r.workers = min(r.workers, len(r.queue))

	// The snapshot pulls golden-cache statistics live.
	if tel != nil {
		tel.SetCacheSource(cache.Observe)
		tel.SetDecodeSource(interp.DecodeCacheStats)
		tel.Start(r.workers)
		// Queue accounting counts masks, not queue slots: pruned and
		// resumed masks complete without a worker (so queued == done
		// holds), and guard checks are invisible to telemetry.
		tel.AddQueued(totalMasks)
	}
	return r
}

// window is the detail-window policy run q executes under: the
// campaign's for a real run, its check's for a guard check.
func (r *matrixRun) window(q scheduledRun) *windowConfig {
	if q.check >= 0 {
		return r.plan.cells[q.cell].checks[q.check].win
	}
	return r.plan.win
}

// settleRun settles one outcome in its cell's ledger and, in a shard,
// keeps it for the caller as it is: a replicated stub unresolved, since
// its representative may live in another shard's window.
func (r *matrixRun) settleRun(cell int, run ShardRun, dispatched bool) error {
	if r.shard {
		r.kept[cell][run.Index-r.plan.cells[cell].win.lo] = run
	}
	return r.ledgers[cell].Settle(run, dispatched)
}

// execute is the execute stage: the worker pool over the queue. Each
// finished run is settled — journal line fsync'd first — before its
// worker takes the next one.
func (r *matrixRun) execute() error {
	// Resumed runs completed in an earlier process: their outcomes carry
	// the journaled record and trace provenance (so the trace sink
	// reproduces the uninterrupted trace byte-for-byte) but no wall time,
	// footprint or commit-stream verdict, and are flagged Resumed so the
	// throughput gauges stay about this process's work. They settle
	// before the pool starts; a journaled stopped row only waits for the
	// re-derived stop decision (CellLedger.Journaled).
	for i := range r.plan.cells {
		for _, run := range r.plan.cells[i].resumed {
			if run.Stopped() {
				r.ledgers[i].Journaled(run)
			} else if err := r.settleRun(i, run, false); err != nil {
				return err
			}
		}
	}

	cfg, plan, queue := r.cfg, r.plan, r.queue
	tel, tr := r.att.Telemetry, r.att.Tracer
	adaptiveOn := cfg.StopMargin > 0
	var (
		mu          sync.Mutex
		next        int
		head        int
		stop        bool
		firstErr    error
		firstErrRun = -1
		wg          sync.WaitGroup
	)
	var cond *sync.Cond
	var taken []bool
	if adaptiveOn {
		cond = sync.NewCond(&mu)
		taken = make([]bool, len(queue))
	}
	fail := func(run int, err error) {
		mu.Lock()
		if firstErrRun < 0 || run < firstErrRun {
			firstErrRun, firstErr = run, err
		}
		stop = true
		if cond != nil {
			cond.Broadcast()
		}
		mu.Unlock()
	}
	// takeNext hands a worker its next queue index. The fixed-budget path
	// is the original O(1) cursor. With the stopping rule armed, dispatch
	// scans for the first untaken entry whose mask sits below its cell's
	// current evaluation boundary — dispatching past the boundary would
	// waste (and worse, make nondeterministic) runs the boundary may
	// cancel. Entries a stop decision cancelled are consumed without
	// dispatch; guard checks are never gated (they cross-check settled
	// verdicts, not the estimator's). A worker that finds only gated
	// entries blocks until a completion advances a boundary or a failure
	// stops the pool.
	takeNext := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !adaptiveOn {
			if stop || next >= len(queue) {
				return 0, false
			}
			i := next
			next++
			return i, true
		}
		for {
			if stop {
				return 0, false
			}
			for head < len(queue) && taken[head] {
				head++
			}
			gated := false
			for j := head; j < len(queue); j++ {
				if taken[j] {
					continue
				}
				q := queue[j]
				if q.check >= 0 {
					taken[j] = true
					return j, true
				}
				s := plan.cells[q.cell].stop
				if s.Cancelled(q.mask) {
					taken[j] = true
					if r.window(q) == nil {
						r.forks[q.cell].dispatch() // leaves the row's count
					}
					continue
				}
				if !s.dispatchable(q.mask) {
					gated = true
					continue
				}
				taken[j] = true
				return j, true
			}
			if !gated {
				return 0, false
			}
			cond.Wait()
		}
	}
	// noteErr accounts a per-run failure before the deterministic
	// first-error selection; a contained panic bumps the telemetry
	// counter even when a different run's error ultimately wins.
	noteErr := func(run int, err error) {
		var pe *PanicError
		if tel != nil && errors.As(err, &pe) {
			tel.PanicContained()
		}
		fail(run, err)
	}
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := takeNext()
				if !ok {
					return
				}
				q := queue[i]
				spec, c := &r.specs[q.cell], &plan.cells[q.cell]
				mask := spec.Masks[q.mask]
				win := r.window(q)
				var fk *fork
				if win == nil {
					fk = &fork{row: r.forks[q.cell], point: r.forks[q.cell].dispatch(), sig: c.sig}
				}
				if q.check >= 0 {
					// A guard check: simulated to cross-check a settled
					// verdict, bypassing telemetry, the journal and the
					// results entirely.
					rec, err := runGuarded(spec.Factory, c.rungs, mask, c.golden,
						cfg.TimeoutFactor, !cfg.DisableEarlyStop, win, fk, c.ff, cfg.RunWallLimit, nil)
					if err != nil {
						noteErr(i, err)
						return
					}
					r.checkRecs[q.cell][q.check] = rec
					continue
				}
				// The extras cost a little per run, so they are gathered only
				// when something reads them: a sink, the divergence rows, the
				// tracer, or the coordinator a shard's outcomes travel to.
				var stats *runStats
				var runStart time.Time
				if tel != nil || r.att.Journal != nil || cfg.Divergence || tr != nil || r.shard {
					stats = &runStats{footprint: cfg.Divergence}
					if c.sig != nil {
						stats.div = divergence.NewProbe(c.sig)
					}
					runStart = time.Now()
				}
				if tel != nil {
					tel.RunStarted()
				}
				rec, err := runGuarded(spec.Factory, c.rungs, mask, c.golden,
					cfg.TimeoutFactor, !cfg.DisableEarlyStop, win, fk, c.ff, cfg.RunWallLimit, stats)
				if err != nil {
					noteErr(i, err)
					return
				}
				var wall time.Duration
				if stats != nil {
					wall = time.Since(runStart)
				}
				run := simulated(q.mask, rec, stats, wall)
				if adaptiveOn {
					// Feed the cell's rule and wake gated workers: the
					// contiguous prefix may have extended past a boundary,
					// releasing the next chunk — or deciding the cell.
					mu.Lock()
					c.stop.Note(q.mask, string(run.Class()))
					cond.Broadcast()
					mu.Unlock()
				}
				if err := r.settleRun(q.cell, run, true); err != nil {
					fail(i, err)
					return
				}
				if tr != nil {
					emitRunSpans(tr, r.cellSpans[q.cell].ID(), r.att.SpanWorker, c.key, rec, stats, runStart)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// settle is the settle stage: it settles the masks execution did not —
// the tails the stop decisions cancelled and the masks the plan settled
// without simulation — and compares the guard checks. It touches the
// ledgers, never a simulator.
func (r *matrixRun) settle() error {
	for i := range r.plan.cells {
		if err := r.ledgers[i].SettleStopped(r.plan.cells[i].stop, r.specs[i].Masks); err != nil {
			return err
		}
	}

	// The masks the plan decided without simulation: dead masks as the
	// synthetic pruned outcome, replicas as their representative's verdict
	// under their own identity. Telemetry sees one started/done pair per
	// pruned mask (keeping queued == done) with the prune provenance on
	// the event; the collector excludes them from throughput gauges. A
	// shard hands a replica back as its stub and whoever merges the
	// shards resolves it — even when the representative happens to be
	// in-window, which keeps every shard's treatment of replicated rows
	// identical.
	for i := range r.plan.cells {
		c := &r.plan.cells[i]
		for m, d := range c.disp {
			if d.kind != dispDead && d.kind != dispReplica || c.stop.Cancelled(m) {
				continue // a cancelled mask was settled as a stopped-early row above
			}
			run := dead(m, r.specs[i].Masks[m], c.golden)
			if d.kind == dispReplica {
				run = replicated(m, r.specs[i].Masks[m], d.rep)
			}
			if err := r.settleRun(i, run, false); err != nil {
				return err
			}
		}
	}

	// The differential guards: every check re-simulated a mask whose
	// class must agree with the settled record it names — a pruned
	// verdict (a replica's is its representative's record, which keeps
	// the check meaningful in a shard, where replicated rows are filled
	// at merge time), or a windowed record re-run cycle-accurately from
	// the same entry, which indicts the window-exit proof or the
	// functional tail. Classes, not raw statuses: a dead-pruned run
	// reports "pruned" where the simulation reports "early-masked" or
	// "completed" — all Masked.
	for i := range r.plan.cells {
		c := &r.plan.cells[i]
		for j, k := range c.checks {
			ref, got := r.ledgers[i].records[k.ref], r.checkRecs[i][j]
			if ref.Status == RunStopped.String() || got.Status == "" {
				// The stop decision settled the reference (or cancelled
				// the check before it dispatched): nothing to compare.
				continue
			}
			settled, _ := (Parser{}).Classify(ref)
			rerun, _ := (Parser{}).Classify(got)
			if settled == rerun {
				continue
			}
			id := r.specs[i].Masks[k.mask].ID
			if k.prune {
				d := c.prune.Decisions[k.mask]
				return fmt.Errorf(
					"core: prune-verify mismatch on %s mask %d (%s, reason %q): pruned class %s, simulated class %s (status %s)",
					c.key, id, d.Action, d.Reason, settled, rerun, got.Status)
			}
			return fmt.Errorf(
				"core: window-verify mismatch on %s mask %d: windowed class %s (status %s), cycle-accurate class %s (status %s)",
				c.key, id, settled, ref.Status, rerun, got.Status)
		}
	}
	return nil
}

// results is every cell's result, built by its ledger once everything
// is settled.
func (r *matrixRun) results() ([]*CampaignResult, error) {
	out := make([]*CampaignResult, len(r.specs))
	for i := range r.specs {
		c := &r.plan.cells[i]
		var err error
		if out[i], err = r.ledgers[i].Result(c.golden, c.stop); err != nil {
			return nil, err
		}
		if r.cfg.Exhaustive {
			// An exhaustive cell enumerated its collapsed mask space; its
			// estimate is a census, not a sample: complete, zero margin.
			sim := len(r.specs[i].Masks)
			if c.prune != nil {
				sim = c.prune.Simulated
			}
			out[i].Adaptive = &AdaptiveInfo{Complete: true, SimulatedRuns: sim, PlannedRuns: len(r.specs[i].Masks)}
		}
	}
	return out, nil
}

// emitRunSpans emits the span of one injection run plus its execution
// phases, synthesized from the per-run stats. A run with no window has
// two: fork (restore and fault-free advance to the fork cycle) and
// detail (the faulty run from there). A windowed run has fast-forward
// (functional window entry), window (the cycle-accurate section) and
// drain (the functional tail after window exit).
func emitRunSpans(tr *telemetry.Tracer, parent, worker, campaign string, rec LogRecord, stats *runStats, start time.Time) {
	mask := rec.MaskID
	run := telemetry.Span{
		SpanID:      tr.NewSpanID(),
		ParentID:    parent,
		Kind:        telemetry.SpanRun,
		Name:        fmt.Sprintf("mask-%d", rec.MaskID),
		Campaign:    campaign,
		MaskID:      &mask,
		Worker:      worker,
		StartUnixNS: start.UnixNano(),
		EndUnixNS:   time.Now().UnixNano(),
		Cycles:      rec.Cycles,
	}
	tr.Emit(run)
	t := start
	phase := func(name string, wall time.Duration, cycles, steps uint64) {
		tr.Emit(telemetry.Span{
			SpanID:      tr.NewSpanID(),
			ParentID:    run.SpanID,
			Kind:        telemetry.SpanPhase,
			Name:        name,
			Campaign:    campaign,
			MaskID:      &mask,
			Worker:      worker,
			StartUnixNS: t.UnixNano(),
			EndUnixNS:   t.Add(wall).UnixNano(),
			Cycles:      cycles,
			Steps:       steps,
		})
		t = t.Add(wall)
	}
	if !stats.windowed {
		var detail uint64
		if rec.Cycles > stats.rungCycle {
			detail = rec.Cycles - stats.rungCycle
		}
		phase("fork", stats.forkWall, stats.forkCycles, 0)
		phase("detail", stats.detailWall, detail, 0)
		return
	}
	if stats.windowEntered {
		phase("fast-forward", stats.entryWall, 0, stats.entrySteps)
	}
	phase("window", stats.detailWall, stats.detailCycles, 0)
	if stats.windowExited {
		phase("drain", stats.tailWall, 0, stats.tailSteps)
	}
}
