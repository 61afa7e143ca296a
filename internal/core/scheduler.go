package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/prune"
	"repro/internal/telemetry"
)

// MatrixOptions configures RunMatrix.
type MatrixOptions struct {
	// Workers is the size of the single global worker pool shared by
	// every campaign of the matrix; 0 means GOMAXPROCS. Per-spec Workers
	// values are ignored — decoupling pool size from per-campaign mask
	// count is the point of the matrix scheduler.
	Workers int
	// Golden optionally shares a golden-run memoizer across RunMatrix
	// calls (e.g. across the five figures of a full reproduction). When
	// nil the call uses a private cache.
	Golden *GoldenCache
	// Telemetry, when non-nil, receives one run-end event per injection
	// run plus queue/worker/golden-cache counters. A nil collector costs
	// nothing on the run path. Events are classified with the default
	// Parser; the logs repository remains the source for reconfigurable
	// offline classification.
	Telemetry *telemetry.Collector
	// Prune enables golden-run liveness pruning: per row, a profiled
	// fault-free replay records every access of the targeted structures,
	// and masks whose fault is provably dead (overwritten, evicted or
	// never accessed before any read) are classified Masked without
	// simulation; masks falling into the same inter-access interval are
	// collapsed to one simulated representative whose verdict the class
	// shares. When checkpoint restores are in play, one extra replay per
	// rung keeps the verdicts sound against the restored trajectories.
	Prune bool
	// PruneVerify, when positive, additionally simulates up to that many
	// pruned masks per campaign and fails the matrix when a simulated
	// class disagrees with the pruned verdict — the differential guard
	// of the pruning engine. It implies Prune.
	PruneVerify int
	// CheckpointLadder is the number of evenly spaced restore points
	// captured per row for its UseCheckpoint campaigns: K rungs at
	// (i+1)/(K+1) of the golden run, each run restoring the highest rung
	// below its earliest fault. Values below 2 keep the legacy single
	// earliest-fault checkpoint.
	CheckpointLadder int
	// Journal, when non-nil, receives one fsync'd JSONL line per
	// completed injection run — the record plus its trace provenance —
	// before the worker moves on, so a killed campaign loses at most the
	// runs that were in flight. Verify re-runs and plan-settled (pruned)
	// masks are not journaled: the former never enter the results, the
	// latter are replayed from the deterministic plan on resume.
	Journal *fault.Journal
	// Resume replays the journal into the results before dispatch:
	// masks already journaled for a campaign key load their record from
	// the journal, skip the queue, and count as resumed in telemetry.
	// The final records — and the injection trace — are byte-identical
	// to an uninterrupted run. Requires Journal.
	Resume bool
	// RunWallLimit, when positive, bounds the host wall-clock time of a
	// single injection run. The cycle budget (TimeoutFactor) bounds
	// simulated time; this backstop catches a wedged simulator whose
	// cycles stop advancing at all. A run over the limit is recorded as
	// a commit-stalled cycle-limit run (class Timeout, deadlock detail)
	// and its goroutine abandoned. Wall-timeout verdicts depend on host
	// timing, so set this comfortably above any honest run.
	RunWallLimit time.Duration
	// DetailWindow enables sampled execution on window-capable
	// simulators: each injected run simulates cycle-accurately only
	// inside a detail window around its fault — entered by a functional
	// fast-forward (or a checkpoint rung, whichever is closer) and left
	// once every fault provably settled with no residual corruption in a
	// cache or TLB — and runs on the functional interpreter everywhere
	// else. WindowPre and WindowPost are the margins, in cycles, of
	// cycle-accurate simulation kept before the earliest fault arms and
	// after the last fault settles; runs whose fault never settles stay
	// cycle-accurate to the end.
	DetailWindow bool
	WindowPre    uint64
	WindowPost   uint64
	// WindowVerify, when positive, additionally re-simulates up to that
	// many windowed masks per campaign fully cycle-accurately from the
	// same window entry and fails the matrix when an outcome class
	// disagrees with the windowed verdict — the differential guard of
	// the window-exit proof. It implies DetailWindow.
	WindowVerify int
	// FFRungs sizes the functional fast-forward rung ladder windowed
	// runs enter their detail window through: per {tool, benchmark} row,
	// functional-tier states are memoized at FFRungs evenly spaced step
	// points of the fault-free prefix (lazily, on first use) and each
	// window entry resumes from the nearest rung at or below its entry
	// instruction instead of replaying from boot. Zero means the default
	// ladder; negative disables it (every entry fast-forwards from
	// boot). The seeded states are identical either way, so results,
	// traces and journals are byte-identical across settings.
	FFRungs int
	// NoDecodeCache forces every functional-tier dispatch through the
	// slow byte-level Fetch+Decode path instead of the per-image
	// predecoded instruction cache — the reference behaviour for the
	// differential guards; results are byte-identical either way.
	NoDecodeCache bool
	// Divergence, when non-nil, receives one provenance record per mask:
	// where the injected run's committed-instruction stream first left
	// the golden path (measured against a per-row golden signature
	// memoized in the golden cache), how long the corruption lived in the
	// watched arrays, and how the run ended. Pruned and resumed masks get
	// footprint-free records flagged with their provenance. Like the
	// records and the trace, the sink's sorted contents are byte-stable
	// across worker counts.
	Divergence *divergence.Sink
	// Tracer, when non-nil, emits campaign/cell/run/phase spans for the
	// matrix, parented under TraceParent (empty for a root span).
	// SpanWorker labels the emitting process on run and phase spans (a
	// dist worker ID, or "local").
	Tracer      *telemetry.Tracer
	TraceParent string
	SpanWorker  string
	// StopMargin, when positive, arms the sequential-confidence stopping
	// rule on every cell: completions are folded into per-class Wilson
	// score intervals in the cell's deterministic simulation order, the
	// rule is evaluated every StopCheckEvery completions, and once every
	// class proportion is pinned to ±StopMargin at StopConfidence the
	// cell's remaining masks are cancelled and settled as stopped-early
	// provenance rows. The stop point is a pure function of the mask
	// population, so logs, traces and journals stay byte-stable across
	// worker counts and resumes. Ignored in shard mode (windows non-nil):
	// the distributed coordinator owns the global stop decision.
	StopMargin     float64
	StopConfidence float64
	StopCheckEvery int
}

// scheduledRun is one injection run of the flattened matrix queue.
type scheduledRun struct {
	spec int // index into the specs slice
	mask int // index into that spec's mask slice
	// verify is the slot index of a prune-verify run (simulated only to
	// cross-check a pruned verdict, stored outside the records), or -1
	// for a normal run.
	verify int
	// wverify is the slot index of a window-verify run (a windowed mask
	// re-simulated fully cycle-accurately, stored outside the records),
	// or -1 for a normal run.
	wverify int
}

// campaignPrep is the per-campaign state resolved before dispatch.
type campaignPrep struct {
	golden GoldenInfo
	rungs  []LadderRung
	plan   *prune.Plan
	// ff is the row's functional fast-forward rung ladder (nil when
	// windowing is off or the ladder is disabled).
	ff *ffLadder
}

// RunMatrix executes a set of {tool, benchmark, structure} campaigns as
// one flattened work queue on a single shared worker pool, so short
// campaigns no longer serialize behind long ones. Results are returned
// in spec order with records in mask order, byte-identical to running
// each campaign alone: per-run work goes through the same RunOneFrom
// path, golden references are memoized per {tool, benchmark} row rather
// than re-simulated per campaign, and checkpoint prefixes (UseCheckpoint)
// are computed once per row and shared across its structures.
//
// On a worker error the pool cancels promptly — in-flight runs finish,
// queued runs are abandoned — and the error of the earliest queued run
// that failed is returned. Each run executes behind a containment
// boundary: a panic escaping the simulator or the fault-arming path is
// converted into that run's error (surfaced through the same
// deterministic first-error ordering) instead of aborting the process,
// and masks are validated against structure geometry before anything is
// queued.
//
// Deprecated: RunMatrix predates the consolidated campaign API. New
// callers should describe campaigns with a CampaignConfig and use
// RunConfig (local execution) or RunShard (one mask window of a
// distributed campaign); both run through the same scheduler. RunMatrix
// stays as a thin wrapper so existing callers compile unchanged.
func RunMatrix(specs []CampaignSpec, opt MatrixOptions) ([]*CampaignResult, error) {
	results, _, err := runMatrix(specs, opt, nil)
	return results, err
}

// maskWindow restricts the scheduler to the half-open mask index range
// [lo, hi) of one spec — the shard executor's view of a campaign. The
// spec still carries the full mask set, so plan-time artifacts whose
// placement depends on the whole campaign (checkpoint positions, prune
// plans, mask validation) are computed exactly as a single-node run
// computes them; only queueing and settling are windowed.
type maskWindow struct{ lo, hi int }

// shardExec is the shard executor's mode of the scheduler: one mask
// window per spec, outcomes kept for the caller instead of committed,
// and — since a shard has no divergence sink to ask — whether to
// measure divergence provenance at all.
type shardExec struct {
	windows    []maskWindow
	divergence bool
}

// runMatrix is the scheduler core behind RunMatrix, RunConfig and
// RunShard. Every in-window mask is settled exactly once, as the
// outcome its provenance constructor builds (see ShardRun), through the
// spec's CellSinks. shard, when non-nil, limits simulation and settling
// to the windowed masks and keeps each window's outcomes, in mask order,
// for the caller: out-of-window records stay zero, replicated masks stay
// unresolved stubs (their representative may live in another window),
// and prune-verify samples only masks whose comparison record exists in
// the window.
func runMatrix(specs []CampaignSpec, opt MatrixOptions, shard *shardExec) ([]*CampaignResult, [][]ShardRun, error) {
	cache := opt.Golden
	if cache == nil {
		cache = NewGoldenCache()
	}
	var windows []maskWindow
	if shard != nil {
		windows = shard.windows
		if len(windows) != len(specs) {
			return nil, nil, fmt.Errorf("core: %d mask windows for %d specs", len(windows), len(specs))
		}
		for i, w := range windows {
			if w.lo < 0 || w.hi > len(specs[i].Masks) || w.lo > w.hi {
				return nil, nil, fmt.Errorf("core: spec %d: mask window [%d,%d) outside [0,%d)", i, w.lo, w.hi, len(specs[i].Masks))
			}
		}
	}
	inWindow := func(spec, m int) bool {
		return windows == nil || (m >= windows[spec].lo && m < windows[spec].hi)
	}

	// Span tracing: the matrix is one campaign span; all golden-derived
	// preparation (reference runs, ladders, prune profiles, commit
	// signatures) is covered by one "golden" phase child, and each
	// campaign gets a cell span the run spans parent on.
	tr := opt.Tracer
	var matrixSpan, goldenSpan *telemetry.ActiveSpan
	if tr != nil {
		matrixSpan = tr.Begin(telemetry.SpanCampaign, "matrix", opt.TraceParent)
		goldenSpan = tr.Begin(telemetry.SpanPhase, "golden", matrixSpan.ID())
	}

	preps := make([]campaignPrep, len(specs))
	for i, spec := range specs {
		var g GoldenInfo
		if spec.Golden != nil {
			g = *spec.Golden
		} else {
			var err error
			g, err = cache.Golden(spec.Tool, spec.Benchmark, spec.Factory)
			if err != nil {
				return nil, nil, err
			}
		}
		g.Benchmark = spec.Benchmark
		g.Structure = spec.Structure
		if spec.Tool != "" {
			g.Tool = spec.Tool
		}
		preps[i].golden = g
	}

	// Fail malformed masks at plan time, before anything simulates:
	// arming a fault outside its structure's geometry panics deep inside
	// the bitarray, so a typo in a hand-edited mask file must be named up
	// front (mask ID and site) rather than surface as a contained panic
	// halfway through a long campaign. Geometry comes from the memoized
	// golden row; a supplied golden bypasses the cache, so one
	// boot-only probe instance answers instead.
	for i := range specs {
		spec := &specs[i]
		var geom func(string) (int, int, bool)
		var geomErr error
		if spec.Golden == nil {
			geom = func(structure string) (int, int, bool) {
				entries, bits, ok, err := cache.Geometry(spec.Tool, spec.Benchmark, spec.Factory, structure)
				if err != nil {
					geomErr = err
					return 0, 0, false
				}
				return entries, bits, ok
			}
		} else {
			arrs := spec.Factory().Structures()
			geom = func(structure string) (int, int, bool) {
				arr, ok := arrs[structure]
				if !ok {
					return 0, 0, false
				}
				return arr.Entries(), arr.BitsPerEntry(), true
			}
		}
		for _, m := range spec.Masks {
			if err := m.ValidateSites(geom); err != nil {
				if geomErr != nil {
					return nil, nil, geomErr
				}
				return nil, nil, fmt.Errorf("core: campaign %s: %v",
					fault.CampaignKey(preps[i].golden.Tool, spec.Benchmark, spec.Structure), err)
			}
		}
	}

	// Resolve the restore points once per {tool, benchmark} row and share
	// them across the row's structures; every run still decides
	// individually which rung (if any) its earliest fault permits. With a
	// ladder (K >= 2) the rungs sit at fixed fractions of the golden run
	// and are memoized in the cache; the legacy single checkpoint is
	// placed just before the earliest fault of the row's
	// checkpoint-enabled campaigns and wrapped as a one-rung ladder.
	earliest := make(map[goldenKey]uint64)
	for i, spec := range specs {
		if !spec.UseCheckpoint {
			continue
		}
		key := goldenKey{preps[i].golden.Tool, spec.Benchmark}
		e, ok := earliest[key]
		if !ok {
			e = ^uint64(0)
		}
		for _, m := range spec.Masks {
			if c := minSiteCycle(m); c < e {
				e = c
			}
		}
		earliest[key] = e
	}
	rows := make(map[goldenKey][]LadderRung)
	for i, spec := range specs {
		if !spec.UseCheckpoint {
			continue
		}
		key := goldenKey{preps[i].golden.Tool, spec.Benchmark}
		rungs, done := rows[key]
		if !done {
			if opt.CheckpointLadder >= 2 {
				var err error
				rungs, err = cache.Ladder(key.tool, key.bench, spec.Factory, opt.CheckpointLadder)
				if err != nil {
					return nil, nil, err
				}
			} else if cp, cpCycle := makeCheckpoint(spec.Factory, preps[i].golden, earliest[key]); cp != nil {
				rungs = []LadderRung{{State: cp, Cycle: cpCycle}}
			}
			rows[key] = rungs
		}
		preps[i].rungs = rungs
	}

	// Liveness pruning: one profiled fault-free replay per row trajectory
	// (boot plus one per rung) classifies provably-dead masks Masked and
	// collapses interval-equivalent masks at plan time, before anything is
	// queued.
	pruneOn := opt.Prune || opt.PruneVerify > 0
	if pruneOn {
		type rowKey struct {
			key   goldenKey
			rungs int // rows with and without restores profile separately
		}
		profiled := make(map[rowKey][]prune.Profiles)
		structures := maskStructures(specs)
		for i := range specs {
			spec := &specs[i]
			key := rowKey{goldenKey{preps[i].golden.Tool, spec.Benchmark}, len(preps[i].rungs)}
			profiles, done := profiled[key]
			if !done {
				var err error
				if spec.Golden == nil {
					// The cache memoizes the profiled replays per {rungs,
					// structures}, so a worker re-planning the same campaign
					// for every shard profiles the row once, not once per
					// shard. A supplied golden bypasses the cache (its row
					// may not be the cache's), so it profiles locally.
					profiles, err = cache.Profiles(spec.Tool, spec.Benchmark, spec.Factory, preps[i].rungs, structures)
				} else {
					profiles, err = buildRowProfiles(spec.Factory, preps[i].rungs, structures, preps[i].golden)
				}
				if err != nil {
					return nil, nil, err
				}
				profiled[key] = profiles
			}
			preps[i].plan, _ = planMasks(spec, preps[i].rungs, profiles)
		}
	}

	// Campaign keys label journal lines and telemetry rows alike.
	keys := make([]string, len(specs))
	for i, spec := range specs {
		tool := spec.Tool
		if tool == "" {
			tool = preps[i].golden.Tool
		}
		keys[i] = fault.CampaignKey(tool, spec.Benchmark, spec.Structure)
	}

	// Divergence provenance: resolve the golden commit-stream signature
	// once per {tool, benchmark} row. Supplied-golden specs resolve
	// through the cache too — the signature replay is deterministic and
	// depends only on the factory, so the row's cells share one replay.
	probe := opt.Divergence != nil || (shard != nil && shard.divergence)
	var sigs []*divergence.Signature
	if probe {
		sigs = make([]*divergence.Signature, len(specs))
		for i, spec := range specs {
			sig, err := cache.CommitSignature(preps[i].golden.Tool, spec.Benchmark, spec.Factory)
			if err != nil {
				return nil, nil, err
			}
			sigs[i] = sig
		}
	}

	var cellSpans []*telemetry.ActiveSpan
	if tr != nil {
		goldenSpan.End()
		cellSpans = make([]*telemetry.ActiveSpan, len(specs))
		for i := range specs {
			cellSpans[i] = tr.Begin(telemetry.SpanCell, keys[i], matrixSpan.ID())
		}
	}

	// Resume: replay the journal's acknowledged runs into resumed
	// outcomes, per spec by mask index. The queue fill below consults
	// them after the prune plan — plans are regenerated deterministically,
	// so a journaled mask the plan now settles without simulation stays
	// with the plan's verdict.
	jnl := opt.Journal
	journaled := make([]map[int]ShardRun, len(specs))
	if opt.Resume && jnl != nil {
		past := jnl.Entries()
		for i := range specs {
			var err error
			if journaled[i], err = ReplayJournal(keys[i], past, specs[i].Masks); err != nil {
				return nil, nil, err
			}
		}
	}
	type settledRun struct {
		spec int
		run  ShardRun
	}
	var resumed []settledRun

	// Detail-window policy: one shared config for the real runs, plus
	// the no-exit variant the window-verify re-runs use to stay
	// cycle-accurate from the same window entry.
	var win, winNoExit *windowConfig
	if opt.DetailWindow || opt.WindowVerify > 0 {
		win = &windowConfig{pre: opt.WindowPre, post: opt.WindowPost, noDecode: opt.NoDecodeCache}
		winNoExit = &windowConfig{pre: opt.WindowPre, post: opt.WindowPost, noDecode: opt.NoDecodeCache, noExit: true}
		// Resolve the functional fast-forward rung ladder once per row;
		// the rungs themselves are captured lazily on the run path.
		if opt.FFRungs >= 0 {
			n := opt.FFRungs
			if n == 0 {
				n = defaultFFRungs
			}
			for i := range specs {
				preps[i].ff = cache.FFLadder(preps[i].golden.Tool, specs[i].Benchmark,
					preps[i].golden, n, opt.NoDecodeCache)
			}
		}
	}

	// Flatten every injection run into one shared queue, spec-major and
	// mask-minor, skipping masks the plan settled without simulation and
	// masks the journal already holds a completed record for. The
	// prune-verify and window-verify samples ride on the same queue as
	// extra runs whose records land in side tables, never in the
	// results.
	records := make([][]LogRecord, len(specs))
	var kept [][]ShardRun // shard mode: each window's outcomes, in mask order
	if shard != nil {
		kept = make([][]ShardRun, len(specs))
		for i, w := range windows {
			kept[i] = make([]ShardRun, w.hi-w.lo)
		}
	}
	verifyIdx := make([][]int, len(specs))
	verifyRecs := make([][]LogRecord, len(specs))
	wverifyIdx := make([][]int, len(specs))
	wverifyRecs := make([][]LogRecord, len(specs))
	var queue []scheduledRun
	totalMasks := 0
	adaptiveOn := opt.StopMargin > 0 && windows == nil
	simOrders := make([][]int, len(specs))
	for i, spec := range specs {
		records[i] = make([]LogRecord, len(spec.Masks))
		plan := preps[i].plan
		var simIdx []int // masks this spec actually simulates
		for m := range spec.Masks {
			if !inWindow(i, m) {
				continue
			}
			totalMasks++
			if plan != nil && plan.Decisions[m].Action != prune.Simulate {
				continue
			}
			if adaptiveOn {
				// The cell's simulation order includes journaled masks —
				// real and stopped alike — so positions (and therefore
				// evaluation boundaries) are identical across resumes.
				simOrders[i] = append(simOrders[i], spec.Masks[m].ID)
			}
			if run, ok := journaled[i][m]; ok {
				resumed = append(resumed, settledRun{spec: i, run: run})
				continue
			}
			simIdx = append(simIdx, m)
			queue = append(queue, scheduledRun{spec: i, mask: m, verify: -1, wverify: -1})
		}
		if opt.PruneVerify > 0 {
			// Windowed: verify only masks whose planned verdict this window
			// can reproduce — a dead mask in the window, or a replicated
			// mask whose representative's record is simulated here too.
			for _, m := range sampleVerify(plan, opt.PruneVerify) {
				if !inWindow(i, m) {
					continue
				}
				if d := plan.Decisions[m]; d.Action == prune.Replicate && !inWindow(i, d.Rep) {
					continue
				}
				verifyIdx[i] = append(verifyIdx[i], m)
			}
			verifyRecs[i] = make([]LogRecord, len(verifyIdx[i]))
			for j, m := range verifyIdx[i] {
				queue = append(queue, scheduledRun{spec: i, mask: m, verify: j, wverify: -1})
			}
		}
		if opt.WindowVerify > 0 {
			wverifyIdx[i] = sampleWindowVerify(simIdx, opt.WindowVerify)
			wverifyRecs[i] = make([]LogRecord, len(wverifyIdx[i]))
			for j, m := range wverifyIdx[i] {
				queue = append(queue, scheduledRun{spec: i, mask: m, verify: -1, wverify: j})
			}
		}
	}

	// Sequential-confidence early stopping: one stopper per cell over its
	// deterministic simulation order. Journaled completions are prefed
	// here (stopped provenance rows excluded — they are settled outcomes
	// of the previous process's stop decision, which this process
	// re-derives from the real completions alone), so a resumed campaign
	// re-evaluates the rule at the same boundaries over the same class
	// multisets and stops at the identical point.
	var stoppers []*cellStopper
	if adaptiveOn {
		stoppers = make([]*cellStopper, len(specs))
		for i := range specs {
			rule, err := adaptive.NewRule(adaptive.Config{
				Margin:     opt.StopMargin,
				Confidence: opt.StopConfidence,
				CheckEvery: opt.StopCheckEvery,
				Classes:    ClassStrings(),
			})
			if err != nil {
				return nil, nil, err
			}
			stoppers[i] = newCellStopper(rule, simOrders[i])
		}
		for _, r := range resumed {
			if !r.run.Stopped() {
				stoppers[r.spec].noteCompleted(r.run.Record.MaskID, string(r.run.Class()))
			}
		}
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queue) {
		workers = len(queue)
	}

	// Sinks: one CellSinks per spec, the campaign rows registered up front
	// so the run path never allocates or locks, and the snapshot pulling
	// golden-cache statistics live. A shard attaches none of them.
	tel := opt.Telemetry
	sinks := make([]CellSinks, len(specs))
	for i := range specs {
		sinks[i] = CellSinks{Key: keys[i], Journal: jnl, Divergence: opt.Divergence}
	}
	if tel != nil {
		tel.SetCacheSource(cache.Observe)
		tel.SetDecodeSource(interp.DecodeCacheStats)
		tel.Start(workers)
		// Queue accounting counts masks, not queue slots: pruned and
		// resumed masks complete at fill time (so queued == done holds),
		// and verify re-runs are invisible to telemetry.
		tel.AddQueued(totalMasks)
		for i, spec := range specs {
			tool := spec.Tool
			if tool == "" {
				tool = preps[i].golden.Tool
			}
			sinks[i].Telemetry = tel
			sinks[i].Row = tel.Campaign(keys[i], tool, spec.Benchmark, spec.Structure)
		}
	}
	// settle is the one exit of a mask from the scheduler: its record
	// joins the results and its outcome goes to the cell's sinks — or, in
	// a shard, back to the caller as it is.
	settle := func(spec int, run ShardRun, dispatched bool) error {
		records[spec][run.Index] = run.Record
		if shard != nil {
			kept[spec][run.Index-windows[spec].lo] = run
		}
		return sinks[spec].Commit(run, dispatched)
	}
	// Resumed runs completed in an earlier process: their outcomes carry
	// the journaled record and trace provenance (so the trace sink
	// reproduces the uninterrupted trace byte-for-byte) but no wall time,
	// footprint or commit-stream verdict, and are flagged Resumed so the
	// throughput gauges stay about this process's work.
	for _, r := range resumed {
		if err := settle(r.spec, r.run, false); err != nil {
			return nil, nil, err
		}
	}

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
	// is the original O(1) cursor. With stoppers armed, dispatch scans
	// for the first untaken entry whose mask sits below its cell's
	// current evaluation boundary — dispatching past the boundary would
	// waste (and worse, make nondeterministic) runs the boundary may
	// cancel. Entries a stop decision cancelled are consumed without
	// dispatch; verify re-runs are never gated (they cross-check settled
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
				r := queue[j]
				if r.verify >= 0 || r.wverify >= 0 {
					taken[j] = true
					return j, true
				}
				id := specs[r.spec].Masks[r.mask].ID
				s := stoppers[r.spec]
				if s.cancelled(id) {
					taken[j] = true
					continue
				}
				if !s.dispatchable(id) {
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
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := takeNext()
				if !ok {
					return
				}
				r := queue[i]
				spec := &specs[r.spec]
				prep := &preps[r.spec]
				if r.verify >= 0 {
					// Prune-verify re-run: simulate a pruned mask for the
					// differential check, bypassing telemetry, the journal
					// and the results entirely. It runs under the same
					// window policy as the real runs — the check is about
					// the prune verdict, not the execution tier.
					rec, err := runGuarded(spec.Factory, prep.rungs, spec.Masks[r.mask],
						prep.golden, spec.TimeoutFactor, !spec.DisableEarlyStop, win, prep.ff, opt.RunWallLimit, nil)
					if err != nil {
						noteErr(i, err)
						return
					}
					verifyRecs[r.spec][r.verify] = rec
					continue
				}
				if r.wverify >= 0 {
					// Window-verify re-run: simulate a windowed mask fully
					// cycle-accurately from the same window entry, bypassing
					// telemetry, the journal and the results entirely.
					rec, err := runGuarded(spec.Factory, prep.rungs, spec.Masks[r.mask],
						prep.golden, spec.TimeoutFactor, !spec.DisableEarlyStop, winNoExit, prep.ff, opt.RunWallLimit, nil)
					if err != nil {
						noteErr(i, err)
						return
					}
					wverifyRecs[r.spec][r.wverify] = rec
					continue
				}
				// The extras cost a little per run, so they are gathered only
				// when something reads them: a sink, the tracer, or the
				// coordinator a shard's outcomes travel to.
				var stats *runStats
				var runStart time.Time
				if tel != nil || jnl != nil || probe || tr != nil || shard != nil {
					stats = &runStats{footprint: probe}
					if probe && sigs[r.spec] != nil {
						stats.div = divergence.NewProbe(sigs[r.spec])
					}
					runStart = time.Now()
				}
				if tel != nil {
					tel.RunStarted()
				}
				rec, err := runGuarded(spec.Factory, prep.rungs, spec.Masks[r.mask],
					prep.golden, spec.TimeoutFactor, !spec.DisableEarlyStop, win, prep.ff, opt.RunWallLimit, stats)
				if err != nil {
					noteErr(i, err)
					return
				}
				var wall time.Duration
				if stats != nil {
					wall = time.Since(runStart)
				}
				run := simulated(r.mask, rec, stats, wall)
				if adaptiveOn {
					// Feed the cell's stopper and wake gated workers: the
					// contiguous prefix may have extended past a boundary,
					// releasing the next chunk — or deciding the cell.
					mu.Lock()
					stoppers[r.spec].noteCompleted(rec.MaskID, string(run.Class()))
					cond.Broadcast()
					mu.Unlock()
				}
				if err := settle(r.spec, run, true); err != nil {
					fail(i, err)
					return
				}
				if tr != nil {
					emitRunSpans(tr, cellSpans[r.spec].ID(), opt.SpanWorker, keys[r.spec], rec, stats, runStart)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}

	// Settle the masks the stop decisions cancelled: every in-window mask
	// past the cell's cutoff — queued, dead-pruned or replicated alike —
	// becomes a synthetic stopped-early provenance row. Settling the
	// whole tail uniformly (rather than only the queued entries) is what
	// keeps single-node and distributed campaigns byte-identical: a
	// coordinator cancelling a shard cannot know the shard's plan
	// actions. Rows a resumed journal already settled keep their
	// journaled record and get no duplicate telemetry or journal line.
	if adaptiveOn {
		for i := range specs {
			st := stoppers[i]
			if st == nil {
				continue
			}
			if tel != nil {
				if st.stopped() {
					tel.CellStopped(st.rule.Margin())
				} else if st.rule.N() > 0 {
					tel.ObserveCellMargin(st.rule.Margin())
				}
			}
			if !st.stopped() {
				continue
			}
			for m, mask := range specs[i].Masks {
				if !inWindow(i, m) || !st.cancelled(mask.ID) {
					continue
				}
				if records[i][m].Status != "" {
					continue // resumed stopped row, already settled
				}
				if err := settle(i, StoppedRun(m, mask), false); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	// Settle the masks the plan decided without simulation: dead masks as
	// the synthetic pruned outcome, collapsed masks as their
	// representative's verdict under their own identity. Telemetry sees
	// one started/done pair per pruned mask (keeping queued == done) with
	// the prune provenance on the event; the collector excludes them from
	// throughput gauges.
	for i := range specs {
		plan := preps[i].plan
		if plan == nil {
			continue
		}
		for m, d := range plan.Decisions {
			mask := specs[i].Masks[m]
			if !inWindow(i, m) || d.Action == prune.Simulate {
				continue
			}
			if adaptiveOn && stoppers[i].cancelled(mask.ID) {
				continue // settled as a stopped-early row above
			}
			var err error
			switch {
			case d.Action == prune.Dead:
				err = settle(i, dead(m, mask, preps[i].golden), false)
			case shard != nil:
				// The representative may live in another shard's window, so
				// a shard hands the stub back unresolved and whoever merges
				// the shards resolves it — even when the representative
				// happens to be in-window, which keeps every shard's
				// treatment of replicated rows identical.
				kept[i][m-windows[i].lo] = replicated(m, mask, d.Rep)
			default:
				err = settle(i, replicated(m, mask, d.Rep).Resolve(records[i][d.Rep]), false)
			}
			if err != nil {
				return nil, nil, err
			}
		}
	}

	// The differential guard of -prune-verify: every sampled pruned mask
	// was also simulated for real; its class must agree with the verdict
	// the plan assigned. (Classes, not raw statuses: a dead-pruned run
	// reports "pruned" where the simulation reports "early-masked" or
	// "completed" — all Masked.)
	for i := range specs {
		for j, m := range verifyIdx[i] {
			// A replicated mask's planned verdict is its representative's
			// class; comparing against the representative's record directly
			// keeps the check meaningful in windowed mode, where replicated
			// rows are filled at merge time rather than here.
			ri := m
			if d := preps[i].plan.Decisions[m]; d.Action == prune.Replicate {
				ri = d.Rep
			}
			if records[i][ri].Status == RunStopped.String() || verifyRecs[i][j].Status == "" {
				// The stop decision settled the comparison target (or
				// cancelled the verify run before it dispatched); there is
				// no planned verdict to check against.
				continue
			}
			planned, _ := (Parser{}).Classify(records[i][ri])
			simulated, _ := (Parser{}).Classify(verifyRecs[i][j])
			if planned != simulated {
				d := preps[i].plan.Decisions[m]
				return nil, nil, fmt.Errorf(
					"core: prune-verify mismatch on %s mask %d (%s, reason %q): pruned class %s, simulated class %s (status %s)",
					fault.CampaignKey(preps[i].golden.Tool, specs[i].Benchmark, specs[i].Structure),
					specs[i].Masks[m].ID, d.Action, d.Reason, planned, simulated, verifyRecs[i][j].Status)
			}
		}
	}

	// The differential guard of -window-verify: every sampled windowed
	// mask was also re-simulated fully cycle-accurately from the same
	// window entry; its outcome class must agree with the windowed
	// record's. A disagreement indicts the window-exit proof (settle,
	// drain or residual-safety) or the functional tail.
	for i := range specs {
		for j, m := range wverifyIdx[i] {
			if records[i][m].Status == RunStopped.String() || wverifyRecs[i][j].Status == "" {
				continue // stop decision settled the windowed record
			}
			windowed, _ := (Parser{}).Classify(records[i][m])
			full, _ := (Parser{}).Classify(wverifyRecs[i][j])
			if windowed != full {
				return nil, nil, fmt.Errorf(
					"core: window-verify mismatch on %s mask %d: windowed class %s (status %s), cycle-accurate class %s (status %s)",
					fault.CampaignKey(preps[i].golden.Tool, specs[i].Benchmark, specs[i].Structure),
					specs[i].Masks[m].ID, windowed, records[i][m].Status, full, wverifyRecs[i][j].Status)
			}
		}
	}

	if tr != nil {
		for i := range specs {
			key := keys[i]
			cellSpans[i].End(func(sp *telemetry.Span) { sp.Campaign = key })
		}
		matrixSpan.End()
	}

	results := make([]*CampaignResult, len(specs))
	for i := range specs {
		results[i] = &CampaignResult{Golden: preps[i].golden, Records: records[i]}
		if adaptiveOn && stoppers[i] != nil {
			st := stoppers[i]
			results[i].Adaptive = &AdaptiveInfo{
				StoppedEarly:    st.stopped(),
				SimulatedRuns:   st.rule.N(),
				PlannedRuns:     len(st.simOrder),
				EffectiveMargin: st.rule.Margin(),
				Confidence:      opt.StopConfidence,
			}
		}
		if specs[i].Exhaustive {
			// An exhaustive cell enumerated its collapsed mask space; its
			// estimate is a census, not a sample: complete, zero margin.
			sim := len(specs[i].Masks)
			if preps[i].plan != nil {
				sim = preps[i].plan.Simulated
			}
			results[i].Adaptive = &AdaptiveInfo{
				Complete:      true,
				SimulatedRuns: sim,
				PlannedRuns:   len(specs[i].Masks),
			}
		}
	}
	return results, kept, nil
}

// emitRunSpans emits the span of one injection run plus its execution
// phases, synthesized from the per-run stats: fast-forward (functional
// window entry), window (the cycle-accurate section — the whole run
// when no window applies is not a phase of its own), and drain (the
// functional tail after window exit).
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
	if stats.windowEntered {
		phase("fast-forward", stats.entryWall, 0, stats.entrySteps)
	}
	if stats.windowed {
		phase("window", stats.detailWall, stats.detailCycles, 0)
	}
	if stats.windowExited {
		phase("drain", stats.tailWall, 0, stats.tailSteps)
	}
}

// sampleWindowVerify picks up to n evenly spaced masks from the
// simulated masks of one spec — the window-verify sample. Sampling the
// queued masks (rather than all masks) keeps the guard about runs that
// actually executed under the window policy.
func sampleWindowVerify(sim []int, n int) []int {
	if n <= 0 || len(sim) == 0 {
		return nil
	}
	if len(sim) <= n {
		return append([]int(nil), sim...)
	}
	out := make([]int, 0, n)
	for j := 0; j < n; j++ {
		out = append(out, sim[j*len(sim)/n])
	}
	return out
}

// makeCheckpoint captures the fault-free prefix of a row on a drained
// machine: the target sits at one fifth of the golden run, pushed later
// when every checkpoint-enabled fault of the row starts later still, and
// capped at four fifths.
func makeCheckpoint(f Factory, golden GoldenInfo, earliest uint64) (any, uint64) {
	// Leave room for the drain overshoot: the machine settles some
	// cycles past the target, and the checkpoint must still precede
	// the earliest fault.
	const drainMargin = 2000
	target := golden.Cycles / 5
	if earliest != ^uint64(0) && earliest > drainMargin && earliest-drainMargin > target {
		target = earliest - drainMargin
	}
	if limit := golden.Cycles * 4 / 5; target > limit {
		target = limit
	}
	base, ok := f().(Checkpointer)
	if !ok || target == 0 {
		return nil, 0
	}
	reached, finished, err := base.RunTo(target)
	if err != nil || finished || reached >= earliest {
		return nil, 0
	}
	st, err := base.Checkpoint()
	if err != nil {
		return nil, 0
	}
	return st, reached
}
