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
// computes them; only dispositions and verify samples are windowed.
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
	// resumed holds the journaled outcomes of the masks disposed as
	// resumed, in mask order.
	resumed []ShardRun
	// simOrder is the cell's simulation order under the stopping rule:
	// the mask IDs of every plan-simulated mask, journaled ones included,
	// so positions (and therefore evaluation boundaries) are identical
	// across resumes. Nil when the rule is off.
	simOrder []int
	// verify and wverify are the mask indexes the prune-verify and
	// window-verify guards re-simulate.
	verify, wverify []int
}

// matrixPlan is the plan of a whole matrix: one cellPlan per spec plus
// the run policy every cell shares.
type matrixPlan struct {
	cells []cellPlan
	// win is the detail-window policy of the real runs and winNoExit the
	// variant the window-verify re-runs use to stay cycle-accurate from
	// the same window entry; both nil when windowing is off.
	win, winNoExit *windowConfig
	// probe: measure divergence provenance on every run.
	probe bool
}

// defaultCheckpointRungs is the ladder K of a campaign that names none.
const defaultCheckpointRungs = 4

// planMatrix is the plan stage of the scheduler. It resolves goldens,
// validates masks, places restore rungs, builds prune plans, replays the
// journal and ends with a disposition per mask plus the verify samples.
// It reads the golden cache (building what is missing, at most Workers
// simulations at a time — see planPool) and the journal's past entries;
// it simulates no injection and touches no sink, and — Workers deciding
// only how fast it gets there — it is a pure function of the config,
// the mask populations and the journal. windows, when non-nil, makes it
// a shard's plan: the same plan with everything outside the window
// disposed dispOutOfWindow, and prune-verify sampling only masks whose
// comparison record exists in the window.
func planMatrix(cfg CampaignConfig, specs []CampaignSpec, att Attach, cache *GoldenCache, windows []maskWindow) (*matrixPlan, error) {
	pool := newPlanPool(cfg.Workers)
	p := &matrixPlan{cells: make([]cellPlan, len(specs))}
	// Golden references and checkpoint ladders, for every campaign: K
	// rungs at fixed fractions of the golden run, built once per row in
	// the cache and shared by the row's cells. A rung is the boot run in
	// flight, so restoring one changes no record; every run decides
	// individually which rung (if any) its earliest fault permits. A
	// simulator that cannot checkpoint gets an empty ladder and boots
	// every run. A cell's ladder follows its own golden run in one task
	// (in BuildSpecs' task when it generated the masks), so a row's
	// ladder does not wait for the other rows' golden runs.
	k := cfg.ladderRungs()
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
		if spec.ladderK == k {
			c.rungs = spec.rungs
			return nil
		}
		c.rungs, err = cache.ladder(pool, spec.Tool, spec.Benchmark, spec.Factory, k)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Fail malformed masks at plan time, before anything simulates:
	// arming a fault outside its structure's geometry panics deep inside
	// the bitarray, so a typo in a hand-edited mask file must be named up
	// front (mask ID and site) rather than surface as a contained panic
	// halfway through a long campaign.
	for i, spec := range specs {
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
					return nil, geomErr
				}
				return nil, fmt.Errorf("core: campaign %s: %v", p.cells[i].key, err)
			}
		}
	}

	// Liveness pruning: one profiled fault-free boot replay per row
	// (memoized in the cache) classifies provably-dead masks Masked and
	// collapses interval-equivalent masks.
	if cfg.Prune || cfg.Exhaustive || cfg.PruneVerify > 0 {
		structures := maskStructures(specs)
		err := pool.each(len(specs), func(i int) error {
			spec := specs[i]
			profiles, err := cache.profiles(pool, spec.Tool, spec.Benchmark, spec.Factory, structures)
			if profiles != nil {
				p.cells[i].prune = prune.BuildPlan(spec.Masks, []prune.Profiles{profiles}, nil)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// Divergence provenance: the golden commit-stream signature, once per
	// row. A shard has no sink to ask, so its config decides.
	p.probe = att.Divergence != nil || (windows != nil && cfg.Divergence)
	if p.probe {
		err := pool.each(len(specs), func(i int) error {
			spec := specs[i]
			sig, err := cache.commitSignature(pool, spec.Tool, spec.Benchmark, spec.Factory)
			p.cells[i].sig = sig
			return err
		})
		if err != nil {
			return nil, err
		}
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
		p.winNoExit = &windowConfig{pre: cfg.WindowPre, post: cfg.WindowPost, noExit: true}
		// The functional fast-forward rung ladder is resolved once per
		// row; the rungs themselves are captured lazily on the run path.
		for i, spec := range specs {
			p.cells[i].ff = cache.FFLadder(spec.Tool, spec.Benchmark, p.cells[i].golden)
		}
	}

	for i := range specs {
		planDispositions(cfg, specs[i].Masks, journaled[i], &p.cells[i])
	}
	return p, nil
}

// planDispositions decides how every mask of one cell is settled, in
// mask order — the prune plan first, then the journal, the rest
// simulate — and draws the verify samples.
func planDispositions(cfg CampaignConfig, masks []fault.Mask, journaled map[int]ShardRun, c *cellPlan) {
	c.disp = make([]disposition, len(masks))
	var sim []int // the masks this process simulates
	for m := c.win.lo; m < c.win.hi; m++ {
		if c.prune != nil {
			switch d := c.prune.Decisions[m]; d.Action {
			case prune.Dead:
				c.disp[m].kind = dispDead
				continue
			case prune.Replicate:
				c.disp[m] = disposition{dispReplica, d.Rep}
				continue
			}
		}
		if cfg.StopMargin > 0 {
			c.simOrder = append(c.simOrder, masks[m].ID)
		}
		if run, ok := journaled[m]; ok {
			c.disp[m].kind = dispResumed
			c.resumed = append(c.resumed, run)
			continue
		}
		c.disp[m].kind = dispSimulate
		sim = append(sim, m)
	}
	// Prune-verify samples the whole cell's pruned masks and keeps those
	// whose planned verdict this window can reproduce: a dead mask in the
	// window, or a replica whose representative's record is simulated
	// here too.
	for _, m := range sampleVerify(c.prune, cfg.PruneVerify) {
		if d := c.disp[m]; d.kind == dispDead || (d.kind == dispReplica && c.win.holds(d.rep)) {
			c.verify = append(c.verify, m)
		}
	}
	c.wverify = sampleWindowVerify(sim, cfg.WindowVerify)
}

// sampleWindowVerify picks up to n evenly spaced masks from the
// simulated masks of one cell — the window-verify sample. Sampling the
// queued masks (rather than all masks) keeps the guard about runs that
// actually executed under the window policy.
func sampleWindowVerify(sim []int, n int) []int {
	if n <= 0 || len(sim) == 0 {
		return nil
	}
	if len(sim) <= n {
		return sim
	}
	out := make([]int, 0, n)
	for j := 0; j < n; j++ {
		out = append(out, sim[j*len(sim)/n])
	}
	return out
}

// planPool bounds the plan stage's simulations — golden runs, checkpoint
// ladders, profiled and signature replays — at the campaign's effective
// Workers. The plan fans out over cells, and a cell's lookups may wait
// on a build another cell of the row started, but there is one bound
// for all of it: only a simulation holds a slot (work), never a
// goroutine that waits on a task or on another build's lock, so the
// fan-out cannot deadlock. A one-slot pool runs every task on the caller's goroutine in
// order: the serial plan a fleet worker with Workers 1 keeps.
//
// Concurrency cannot change what the plan builds: every artifact is a
// deterministic function of its GoldenCache key, and the cache builds
// each key once (per-row once, per-artifact locks) whoever asks first.
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
