package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/prune"
)

// maskWindow restricts the scheduler to the half-open mask index range
// [lo, hi) of one cell — the shard executor's view of a campaign. The
// spec still carries the full mask set, so plan-time artifacts whose
// placement depends on the whole campaign (checkpoint positions, prune
// plans, mask validation) are computed exactly as a single-node run
// computes them; only dispositions and guard checks are windowed.
type maskWindow struct{ lo, hi int }

func (w maskWindow) holds(m int) bool { return m >= w.lo && m < w.hi }

// dispKind says how one mask of a planned cell leaves the scheduler.
type dispKind uint8

const (
	// dispOutOfWindow: another shard's mask; neither simulated nor settled.
	dispOutOfWindow dispKind = iota
	// dispSimulate: dispatched to a worker.
	dispSimulate
	// dispResumed: settled from the journal line an earlier process wrote.
	dispResumed
	// dispDead: proven masked by the prune plan, settled without simulation.
	dispDead
	// dispReplica: collapsed by the prune plan onto the representative at
	// mask index rep, whose verdict it shares.
	dispReplica
)

type disposition struct {
	kind dispKind
	rep  int
}

// cellPlan is everything the scheduler decides about one campaign cell
// before a worker starts: the golden artifacts its runs use, and for
// every mask how it will be settled.
type cellPlan struct {
	key    string // campaign key: labels journal lines, telemetry rows, errors
	golden GoldenInfo
	rungs  []LadderRung
	prune  *prune.Plan
	// ff is the row's functional fast-forward rung ladder (nil when
	// windowing is off or the ladder is disabled); sig the golden commit
	// signature divergence probes compare against (nil when nothing
	// measures divergence).
	ff  *ffLadder
	sig *divergence.Signature

	win  maskWindow
	disp []disposition // one per mask of the cell
	// resumed holds, in mask order, the journaled outcomes of the masks
	// disposed as resumed, and the journaled stopped rows of pruned ones.
	resumed []ShardRun
	// stop is the cell's stopping rule over every in-window mask the
	// plan simulates; nil when the rule is off or nothing simulates.
	stop *StopRule
	// checks are the cell's guard re-runs: prune-verify's, then
	// window-verify's.
	checks []guardCheck
}

// guardCheck is one re-run of a differential guard: mask re-simulated
// under win, whose class must match the settled record of mask index
// ref — the mask itself, or a replica's representative. prune says
// -prune-verify drew it rather than -window-verify.
type guardCheck struct {
	mask, ref int
	win       *windowConfig
	prune     bool
}

// matrixPlan is the plan of a whole matrix: one cellPlan per spec plus
// the run policy every cell shares.
type matrixPlan struct {
	cells []cellPlan
	// win is the detail-window policy of the real runs; nil when
	// windowing is off.
	win *windowConfig
}

// defaultCheckpointRungs is the ladder K of a campaign that names none.
const defaultCheckpointRungs = 4

// planMatrix is the plan stage of the scheduler. It resolves goldens,
// validates masks, places restore rungs, builds prune plans, replays the
// journal and ends with a disposition per mask plus the guard checks.
// It reads the golden cache (building what is missing, at most Workers
// simulations at a time — see planPool) and the journal's past entries;
// it simulates no injection and touches no sink, and — Workers deciding
// only how fast it gets there — it is a pure function of the config,
// the mask populations and the journal. windows, when non-nil, makes it
// a shard's plan: the same plan with everything outside the window
// disposed dispOutOfWindow, and prune-verify checking only masks whose
// comparison record exists in the window.
func planMatrix(cfg CampaignConfig, specs []CampaignSpec, att Attach, cache *GoldenCache, windows []maskWindow) (*matrixPlan, error) {
	pool := newPlanPool(cfg.Workers)
	p := &matrixPlan{cells: make([]cellPlan, len(specs))}
	want := cfg.want()
	// Per cell, in one task: the golden reference, the masks checked
	// against its geometry, then the row's derived artifacts in one
	// lookup (a hit when BuildSpecs asked already; otherwise one replay
	// of the row builds them, memoized in the cache and shared by the
	// row's cells). The checkpoint ladder holds K rungs at fixed
	// fractions of the golden run; a rung is the boot run in flight, so
	// restoring one changes no record, and every run decides
	// individually which rung (if any) its earliest fault permits. A
	// simulator that cannot checkpoint gets an empty ladder and boots
	// every run. Liveness pruning classifies provably-dead masks Masked
	// and collapses interval-equivalent masks from the boot profiles.
	err := pool.each(len(specs), func(i int) error {
		spec := specs[i]
		g, err := cache.golden(pool, spec.Tool, spec.Benchmark, spec.Factory)
		if err != nil {
			return err
		}
		g.Tool, g.Benchmark, g.Structure = spec.Tool, spec.Benchmark, spec.Structure
		c := &p.cells[i]
		c.golden = g
		c.key = fault.CampaignKey(spec.Tool, spec.Benchmark, spec.Structure)
		c.win = maskWindow{0, len(spec.Masks)}
		if windows != nil {
			c.win = windows[i]
		}
		if err := validateMasks(cache, spec, c.key); err != nil {
			return err
		}
		d, err := cache.derived(pool, spec.Tool, spec.Benchmark, spec.Factory, want)
		if err != nil {
			return err
		}
		c.rungs, c.sig = d.rungs, d.sig
		if d.profiles != nil {
			c.prune = prune.BuildPlan(spec.Masks, []prune.Profiles{d.profiles}, nil)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Resume: the journal's acknowledged runs, per cell by mask index.
	// Dispositions consult them after the prune plan — plans are
	// regenerated deterministically, so a journaled mask the plan now
	// settles without simulation stays with the plan's verdict.
	journaled := make([]map[int]ShardRun, len(specs))
	if att.Resume && att.Journal != nil {
		past := att.Journal.Entries()
		for i := range specs {
			var err error
			if journaled[i], err = ReplayJournal(p.cells[i].key, past, specs[i].Masks); err != nil {
				return nil, err
			}
		}
	}

	if cfg.DetailWindow || cfg.WindowVerify > 0 {
		p.win = &windowConfig{pre: cfg.WindowPre, post: cfg.WindowPost}
		// The functional fast-forward rung ladder is resolved once per
		// row; the rungs themselves are captured lazily on the run path.
		for i, spec := range specs {
			p.cells[i].ff = cache.FFLadder(spec.Tool, spec.Benchmark, p.cells[i].golden)
		}
	}

	for i := range specs {
		if err := planDispositions(cfg, specs[i].Masks, journaled[i], p.win, &p.cells[i]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// validateMasks fails malformed masks at plan time, before anything
// simulates: arming a fault outside its structure's geometry panics deep
// inside the bitarray, so a typo in a hand-edited mask file must be
// named up front (mask ID and site) rather than surface as a contained
// panic halfway through a long campaign.
func validateMasks(cache *GoldenCache, spec CampaignSpec, key string) error {
	var geomErr error
	geom := func(structure string) (int, int, bool) {
		entries, bits, ok, err := cache.Geometry(spec.Tool, spec.Benchmark, spec.Factory, structure)
		if err != nil {
			geomErr = err
		}
		return entries, bits, ok && err == nil
	}
	for _, m := range spec.Masks {
		if err := m.ValidateSites(geom); err != nil {
			if geomErr != nil {
				return geomErr
			}
			return fmt.Errorf("core: campaign %s: %v", key, err)
		}
	}
	return nil
}

// planDispositions decides how every mask of one cell is settled, in
// mask order — the prune plan first, then the journal, the rest
// simulate — builds the cell's stopping rule over the plan-simulated
// masks and plans the guard checks of the campaign's window policy win.
func planDispositions(cfg CampaignConfig, masks []fault.Mask, journaled map[int]ShardRun, win *windowConfig, c *cellPlan) error {
	c.disp = make([]disposition, len(masks))
	// The cell's pruned masks; its plan-simulated masks, journaled ones
	// included; the masks this process simulates.
	var pruned, planned, sim []int
	for m := range masks {
		var d prune.Decision
		if c.prune != nil {
			d = c.prune.Decisions[m]
		}
		if d.Action != prune.Simulate {
			pruned = append(pruned, m)
		}
		if !c.win.holds(m) {
			continue
		}
		switch d.Action {
		case prune.Dead:
			c.disp[m].kind = dispDead
		case prune.Replicate:
			c.disp[m] = disposition{dispReplica, d.Rep}
		}
		if d.Action != prune.Simulate {
			// The plan settles a pruned mask; a stop row the journal holds
			// for it only tells the ledger the line is on disk.
			if run, ok := journaled[m]; ok && run.Stopped() {
				c.resumed = append(c.resumed, run)
			}
			continue
		}
		planned = append(planned, m)
		if run, ok := journaled[m]; ok {
			c.disp[m].kind = dispResumed
			c.resumed = append(c.resumed, run)
			continue
		}
		c.disp[m].kind = dispSimulate
		sim = append(sim, m)
	}
	var err error
	if c.stop, err = newStopRule(cfg, planned); err != nil {
		return err
	}
	// Prune-verify samples the whole cell's pruned masks and keeps those
	// whose planned verdict this window can reproduce: a dead mask in the
	// window, re-run with no window (a dead verdict is a proof about the
	// exact run), or a replica whose representative's record is simulated
	// here too, re-run under the policy that record ran under.
	for _, m := range sampleEvenly(pruned, cfg.PruneVerify) {
		switch d := c.disp[m]; {
		case d.kind == dispDead:
			c.checks = append(c.checks, guardCheck{mask: m, ref: m, prune: true})
		case d.kind == dispReplica && c.win.holds(d.rep):
			c.checks = append(c.checks, guardCheck{mask: m, ref: d.rep, win: win, prune: true})
		}
	}
	// Window-verify samples the simulated masks, the runs that execute
	// under the window, and re-runs each from the same entry without the
	// exit.
	if cfg.WindowVerify > 0 {
		noExit := *win
		noExit.noExit = true
		for _, m := range sampleEvenly(sim, cfg.WindowVerify) {
			c.checks = append(c.checks, guardCheck{mask: m, ref: m, win: &noExit})
		}
	}
	return nil
}

// sampleEvenly picks up to n of idx, evenly spaced and in order — the
// deterministic sample both guards draw.
func sampleEvenly(idx []int, n int) []int {
	if n <= 0 {
		return nil
	}
	if len(idx) <= n {
		return idx
	}
	out := make([]int, n)
	for j := range out {
		out[j] = idx[j*len(idx)/n]
	}
	return out
}

// planPool bounds the plan stage's simulations — golden runs and the
// replays that build their derived artifacts — at the campaign's
// effective Workers. The plan fans out over cells, and a cell's lookups
// may wait on a build another cell of the row started, but there is one
// bound for all of it: only a simulation holds a slot (work), never a
// goroutine that waits on a task or on another build's lock, so the
// fan-out cannot deadlock. A one-slot pool runs every task on the
// caller's goroutine in order: the serial plan a fleet worker with
// Workers 1 keeps.
//
// Concurrency cannot change what the plan builds: every artifact is a
// deterministic function of its GoldenCache key, and the cache builds
// each key once (per-row once, per-row replay lock) whoever asks first.
type planPool struct{ slots chan struct{} }

// newPlanPool returns a pool of workers slots; 0 means GOMAXPROCS.
func newPlanPool(workers int) *planPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &planPool{slots: make(chan struct{}, workers)}
}

// work runs one simulation holding a slot. A nil pool bounds nothing:
// fn runs on the caller's goroutine.
func (p *planPool) work(fn func()) {
	if p == nil {
		fn()
		return
	}
	p.slots <- struct{}{}
	defer func() { <-p.slots }()
	fn()
}

// each runs fn(0), …, fn(n-1) as tasks and returns the error of the
// lowest index that failed. A wider-than-one pool starts them all at
// once (each task's simulations queue for slots); a nil or one-slot pool
// runs them in order and stops at the first error.
func (p *planPool) each(n int, fn func(i int) error) error {
	if p == nil || cap(p.slots) == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
