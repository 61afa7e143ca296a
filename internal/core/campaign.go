package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/bitarray"
	"repro/internal/divergence"
	"repro/internal/fault"
)

// GoldenInfo is the fault-free reference run of a campaign.
type GoldenInfo struct {
	Tool       string            `json:"tool"`
	Benchmark  string            `json:"benchmark"`
	Structure  string            `json:"structure"`
	Cycles     uint64            `json:"cycles"`
	Committed  uint64            `json:"committed"`
	OutputHash string            `json:"output_hash"`
	OutputLen  int               `json:"output_len"`
	Stats      map[string]uint64 `json:"stats"`
}

// LogRecord is the per-injection-run line of the logs repository — the
// raw material the Parser classifies. Keeping raw outcomes (rather than
// classes) in the logs is what lets the classification be reconfigured
// without re-running the campaign (§III.B of the paper).
type LogRecord struct {
	MaskID        int          `json:"mask_id"`
	Sites         []fault.Site `json:"sites"`
	Status        string       `json:"status"`
	ExitCode      uint64       `json:"exit_code"`
	OutputHash    string       `json:"output_hash"`
	OutputMatch   bool         `json:"output_match"`
	Cycles        uint64       `json:"cycles"`
	Committed     uint64       `json:"committed"`
	EventKinds    []string     `json:"event_kinds,omitempty"`
	FatalExc      string       `json:"fatal_exc,omitempty"`
	AssertMsg     string       `json:"assert_msg,omitempty"`
	CommitStalled bool         `json:"commit_stalled,omitempty"`
	// Weight is the mask's census cycle mass (zero reads as 1); census
	// campaigns carry it into the logs so the population-share
	// estimators work from the records alone.
	Weight float64 `json:"weight,omitempty"`
}

// CampaignSpec is one materialized campaign cell: exactly what a
// CampaignConfig cannot carry — the factory that boots a fresh simulator
// instance per run and the mask population (the cell's explicit masks,
// or the ones generated from its seed against the golden geometry).
// Every execution knob stays on the config the spec was built from.
type CampaignSpec struct {
	Tool      string
	Benchmark string
	Structure string
	Masks     []fault.Mask
	Factory   Factory
}

// CampaignResult is the outcome of a whole campaign.
type CampaignResult struct {
	Golden  GoldenInfo
	Records []LogRecord
	// Adaptive summarizes the sequential-stopping outcome of the cell;
	// nil for fixed-budget campaigns.
	Adaptive *AdaptiveInfo
	// Divergence holds one divergence-provenance row per record, in
	// mask-index order, when the config measures divergence; nil
	// otherwise. Logs do not carry it.
	Divergence []divergence.Record
}

// AdaptiveInfo is the per-cell outcome of the adaptive control plane:
// how many runs the stopping rule actually spent and the margin it
// achieved, or the completeness stamp of an exhaustive cell.
type AdaptiveInfo struct {
	// StoppedEarly reports whether the sequential rule cancelled the
	// cell's tail before its budget was spent.
	StoppedEarly bool `json:"stopped_early,omitempty"`
	// SimulatedRuns is the number of runs that fed the estimator (the
	// cell's spend); PlannedRuns the budget it would have spent.
	SimulatedRuns int `json:"simulated_runs"`
	PlannedRuns   int `json:"planned_runs"`
	// EffectiveMargin is the widest class half-width at the stop point
	// (or at budget exhaustion), at Confidence.
	EffectiveMargin float64 `json:"effective_margin"`
	Confidence      float64 `json:"confidence,omitempty"`
	// Complete marks an exhaustive cell: the collapsed mask space was
	// enumerated in full, so the proportions are a census with zero
	// margin rather than an estimate.
	Complete bool `json:"complete,omitempty"`
}

func hashOutput(out []byte) string {
	h := sha256.Sum256(out)
	return hex.EncodeToString(h[:8])
}

// Golden performs the fault-free reference run of a factory's simulator.
func Golden(f Factory) (GoldenInfo, error) {
	g, _, err := goldenRun(f)
	return g, err
}

// goldenRun performs the fault-free reference run and also returns the
// finished machine, from which the GoldenCache reads the live entries
// and the geometry of every structure before letting it go.
func goldenRun(f Factory) (GoldenInfo, Simulator, error) {
	sim := f()
	res := sim.Run(1 << 62)
	if res.Status != RunCompleted {
		return GoldenInfo{}, nil, fmt.Errorf("core: golden run did not complete: %v (%s)", res.Status, res.AssertMsg)
	}
	if len(res.Events) != 0 {
		return GoldenInfo{}, nil, fmt.Errorf("core: golden run recorded %d kernel events", len(res.Events))
	}
	return GoldenInfo{
		Tool:       sim.Name(),
		Cycles:     res.Cycles,
		Committed:  res.Committed,
		OutputHash: hashOutput(res.Output),
		OutputLen:  len(res.Output),
		Stats:      sim.Stats(),
	}, sim, nil
}

// RunOne executes a single injection run against a fresh simulator.
func RunOne(f Factory, m fault.Mask, golden GoldenInfo, timeoutFactor uint64, earlyStop bool) (LogRecord, error) {
	return RunOneFrom(f, nil, 0, m, golden, timeoutFactor, earlyStop)
}

// minSiteCycle returns the earliest fault activation of the mask. An
// empty (fault-free) mask reports ^uint64(0) — "no fault ever" — which
// must NOT be fed to selectRung or forkCycle: a fault-free run is
// defined to boot from scratch, not to restore the highest checkpoint
// rung (runInjection guards this).
func minSiteCycle(m fault.Mask) uint64 {
	min := ^uint64(0)
	for _, s := range m.Sites {
		if s.Cycle < min {
			min = s.Cycle
		}
	}
	return min
}

// runStats is the per-run telemetry gathered from the watched arrays
// after an injection run finishes: the fault-observation outcome and the
// fast-path/slow-path access split the telemetry layer aggregates. It is
// filled only when a collector is attached.
type runStats struct {
	faultStatus bitarray.Status
	firstObs    uint64
	observed    bool
	reads       uint64
	writes      uint64
	obsReads    uint64
	obsWrites   uint64
	// restored reports whether the run started from a fault-free machine
	// past boot — a checkpoint rung, or its fork cycle for an unwindowed
	// run — and rungCycle that cycle. forkCycles and forkWall are what
	// an unwindowed run spent getting there: the cycles it advanced
	// fault-free, and the host time of the restore and the advance.
	restored   bool
	rungCycle  uint64
	forkCycles uint64
	forkWall   time.Duration
	// Detail-window provenance: windowed marks a run executed under a
	// detail window, entered/exited whether it was seeded from the fast
	// tier and whether it handed off back to it; fastSteps counts the
	// instructions this run executed functionally (entry since the
	// fast-forward rung it resumed from, plus tail) and detailCycles the
	// cycles actually simulated cycle-accurately.
	windowed      bool
	windowEntered bool
	windowExited  bool
	fastSteps     uint64
	detailCycles  uint64
	// entrySteps/tailSteps split fastSteps into the fast-forward and
	// drain phases for span synthesis; entryWall/detailWall/tailWall
	// are the host wall times of the three execution phases.
	entrySteps uint64
	tailSteps  uint64
	entryWall  time.Duration
	detailWall time.Duration
	tailWall   time.Duration
	// Divergence provenance: div, when non-nil, is the commit-stream
	// probe runInjection attaches to the simulated machine; touches,
	// lastTouch and corrupt are the corruption footprint gathered from
	// the watched arrays after the run when footprint asks for it.
	div       *divergence.Probe
	footprint bool
	touches   uint64
	lastTouch uint64
	corrupt   []string
}

// earlyStopReason names the §III.B proof behind an early-masked run.
func (s *runStats) earlyStopReason() string {
	switch s.faultStatus {
	case bitarray.StatusOverwritten:
		return "overwritten"
	case bitarray.StatusSkippedInvalid:
		return "skipped-invalid"
	default:
		return ""
	}
}

// armed takes the watched arrays' access counters as the fault is armed.
// The machine may have advanced fault-free from boot or a checkpoint to
// get there, and those accesses are not the faulty run's: the counters
// start at minus what the arrays read so far, and gather's sums land,
// modulo 2^64, on the accesses made after arming.
func (s *runStats) armed(watch []*bitarray.Array) {
	for _, arr := range watch {
		s.reads -= arr.Reads()
		s.writes -= arr.Writes()
		s.obsReads -= arr.ObservedReads()
		s.obsWrites -= arr.ObservedWrites()
	}
}

// gather reads the post-run state of the watched arrays.
func (s *runStats) gather(watch []*bitarray.Array) {
	for _, arr := range watch {
		s.reads += arr.Reads()
		s.writes += arr.Writes()
		s.obsReads += arr.ObservedReads()
		s.obsWrites += arr.ObservedWrites()
		if c, ok := arr.FirstObservation(); ok && (!s.observed || c < s.firstObs) {
			s.observed, s.firstObs = true, c
		}
		if n, last := arr.FaultTouches(); s.footprint && n > 0 {
			s.touches += n
			if last > s.lastTouch {
				s.lastTouch = last
			}
			s.corrupt = append(s.corrupt, arr.Name())
		}
		switch st := arr.FaultStatus(); st {
		case bitarray.StatusOverwritten:
			s.faultStatus = st
		case bitarray.StatusSkippedInvalid:
			if s.faultStatus != bitarray.StatusOverwritten {
				s.faultStatus = st
			}
		}
	}
}

// RunOneFrom executes a single injection run, seeding the machine from
// checkpoint cp (taken at cpCycle) when every fault of the mask starts
// beyond it.
func RunOneFrom(f Factory, cp any, cpCycle uint64, m fault.Mask, golden GoldenInfo, timeoutFactor uint64, earlyStop bool) (LogRecord, error) {
	var rungs []LadderRung
	if cp != nil {
		rungs = []LadderRung{{State: cp, Cycle: cpCycle}}
	}
	return runInjection(f, rungs, m, golden, timeoutFactor, earlyStop, nil, nil, nil, nil)
}

// forkRow is the fork point of one {tool, benchmark} row of a campaign
// execution: the most advanced fault-free checkpoint an unwindowed run
// of the row published, and how many of the row's unwindowed runs are
// still queued. The row lets its point go at the last dispatch, so a
// campaign holds at most one fork point per row and none for a row that
// is done.
type forkRow struct {
	mu      sync.Mutex
	point   forkPoint // State nil: none yet, or released
	pending int
}

// forkPoint is a fault-free machine a run published at its fork cycle.
// In a campaign that measures divergence, probe is the state there of
// the golden commit-stream probe the run's chain attached at the rung
// (or boot) it started from — the probe a run restoring that rung
// attaches — so a run forking here goes on folding the stream exactly
// as that probe would.
type forkPoint struct {
	LadderRung
	probe *divergence.Probe
}

// dispatch hands a run leaving the queue the row's current fork point.
func (r *forkRow) dispatch() forkPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.point
	if r.pending--; r.pending == 0 {
		r.point = forkPoint{}
	}
	return p
}

// wants reports whether a point at cycle c would be the row's new fork
// point: a run of the row is still queued and c lies beyond its point.
func (r *forkRow) wants(c uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending > 0 && (r.point.State == nil || c > r.point.Cycle)
}

// publish makes p the row's fork point if the row still wants it.
func (r *forkRow) publish(p forkPoint) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pending > 0 && (r.point.State == nil || p.Cycle > r.point.Cycle) {
		r.point = p
	}
}

// fork is what an unwindowed run of a campaign execution forks from:
// its row, the row's fork point as it stood at dispatch, and the golden
// commit signature when the campaign measures divergence.
type fork struct {
	row   *forkRow
	point forkPoint
	sig   *divergence.Signature
}

// forkCycle is the cycle an unwindowed run whose earliest fault
// activates at minSite forks off the fault-free trajectory: the last
// cycle selectRung's strict bound admits, clamped below the end of the
// golden run so that the advance never finishes the program.
func forkCycle(minSite uint64, golden GoldenInfo) uint64 {
	c := min(minSite, golden.Cycles)
	if c > 0 {
		c--
	}
	return c
}

// forkAdvanced, when non-nil, is told the cycles of every fork advance;
// tests count them through it.
var forkAdvanced func(golden GoldenInfo, cycles uint64)

// advance brings ck, a fresh machine, fault-free to the start of cycle
// at. It restores the later of the run's fork point (if at or below at)
// and base, the rung selectRung picked (nil for none), or keeps the boot
// state when there is neither; runs to at; and checkpoints there when
// the row wants the point. div, when non-nil, is the run's fresh commit
// probe: it takes the fork point's probe state when the advance starts
// there and watches the advance through cp. It reports the cycles it
// simulated.
func (fk *fork) advance(ck Checkpointer, cp CommitProbed, base *LadderRung, at uint64, div *divergence.Probe) (uint64, error) {
	from := base
	p := fk.point
	if p.State != nil && p.Cycle <= at && (from == nil || p.Cycle > from.Cycle) {
		from = &p.LadderRung
		if div != nil {
			*div = *p.probe
		}
	}
	var cycle uint64
	if from != nil {
		if err := ck.Restore(from.State); err != nil {
			return 0, fmt.Errorf("restoring cycle %d: %w", from.Cycle, err)
		}
		cycle = from.Cycle
	}
	if div != nil {
		cp.SetCommitProbe(div)
	}
	if cycle == at {
		return 0, nil
	}
	reached, finished, err := ck.RunTo(at)
	switch {
	case err != nil:
		return 0, err
	case finished:
		return 0, fmt.Errorf("program ended at cycle %d", reached)
	}
	if fk.row.wants(at) {
		st, err := ck.Checkpoint()
		if err != nil {
			return 0, fmt.Errorf("checkpoint: %w", err)
		}
		pt := forkPoint{LadderRung: LadderRung{State: st, Cycle: at}}
		if div != nil {
			snap := *div
			pt.probe = &snap
		}
		fk.row.publish(pt)
	}
	return at - cycle, nil
}

// runInjection is RunOneFrom plus optional telemetry gathering; stats is
// nil when no collector is attached, keeping the uninstrumented path
// identical to the pre-telemetry one. rungs is the (possibly empty)
// checkpoint ladder of the campaign's row; the run restores the highest
// rung captured before its earliest fault, or boots from scratch. fk,
// when non-nil (a scheduled run with no window), forks the run at its
// fault instead: the machine advances fault-free from the later of that
// rung and the row's fork point to forkCycle, offers the row a
// checkpoint there, and only then arms the fault. win, when non-nil on
// a window-capable simulator, turns on detail-window execution: the run
// fast-forwards to just before its earliest fault on the functional
// tier, simulates cycle-accurately only until the fault provably
// settles (or, for win.noExit, to the end — the verify mode), and
// finishes functionally.
func runInjection(f Factory, rungs []LadderRung, m fault.Mask, golden GoldenInfo, timeoutFactor uint64, earlyStop bool, win *windowConfig, fk *fork, ff *ffLadder, stats *runStats) (LogRecord, error) {
	sim := f()
	wi, _ := sim.(Windower)
	// Fault-free masks never window: with no site there is no window to
	// place, and the run is defined to be the plain golden trajectory.
	canWindow := win != nil && wi != nil && len(m.Sites) > 0 && golden.Cycles > 0
	if stats != nil {
		stats.windowed = canWindow
	}
	// startCycle is where cycle-accurate simulation begins (window
	// entry, rung or fork cycle, or boot at zero) — the base of the
	// detail-cycles accounting.
	var startCycle uint64
	seeded := false
	// Empty masks boot from scratch: with no site to bound the restore,
	// minSiteCycle reports ^uint64(0) and selectRung would hand back the
	// highest rung, silently turning a fault-free reference run into a
	// restored one.
	if len(m.Sites) > 0 {
		minSite := minSiteCycle(m)
		ri := selectRung(rungs, minSite)
		if canWindow {
			// Prefer the functional fast-forward when it gets closer to
			// the window entry than the best checkpoint rung; the pre
			// margin both warms the cold microarchitectural state and
			// absorbs the approximation of placing the entry by the
			// golden run's average commit rate.
			var entry uint64
			if minSite > win.pre {
				entry = minSite - win.pre
			}
			var rungCycle uint64
			if ri >= 0 {
				rungCycle = rungs[ri].Cycle
			}
			if entry > rungCycle {
				t0 := time.Now()
				var fast uint64
				seeded, fast = windowEntry(wi, golden, entry, ff)
				if seeded {
					startCycle = entry
					if stats != nil {
						stats.windowEntered = true
						stats.fastSteps += fast
						stats.entrySteps = fast
						stats.entryWall = time.Since(t0)
					}
				}
			}
		}
		ck, _ := sim.(Checkpointer)
		switch {
		case seeded || ck == nil:
			// Seeded at the window entry, or a machine with nothing to
			// restore: it runs from where it stands.
		case fk != nil:
			// The fork cycle, not the point the advance started from, is
			// what the run reports: it is the same whichever fork point
			// the row had published when the run was dispatched.
			t0 := time.Now()
			at := forkCycle(minSite, golden)
			var base *LadderRung
			if ri >= 0 {
				base = &rungs[ri]
			}
			// In a campaign that measures divergence every advance folds
			// the stream, a verify re-run's too: the points it publishes
			// must carry the probe state for the runs that restore them.
			cp, _ := sim.(CommitProbed)
			var div *divergence.Probe
			switch {
			case cp == nil || fk.sig == nil:
			case stats != nil && stats.div != nil:
				div = stats.div
			default:
				div = divergence.NewProbe(fk.sig)
			}
			advanced, err := fk.advance(ck, cp, base, at, div)
			if err != nil {
				return LogRecord{}, fmt.Errorf("core: %s/%s mask %d: fork at cycle %d: %w", golden.Tool, golden.Benchmark, m.ID, at, err)
			}
			if forkAdvanced != nil {
				forkAdvanced(golden, advanced)
			}
			startCycle = at
			if stats != nil {
				stats.restored, stats.rungCycle = at > 0, at
				stats.forkCycles, stats.forkWall = advanced, time.Since(t0)
			}
		case ri >= 0:
			if err := ck.Restore(rungs[ri].State); err != nil {
				return LogRecord{}, fmt.Errorf("core: restoring checkpoint: %w", err)
			}
			startCycle = rungs[ri].Cycle
			if stats != nil {
				stats.restored, stats.rungCycle = true, rungs[ri].Cycle
			}
		}
	}
	structures := sim.Structures()
	var watch []*bitarray.Array
	var watched map[string]bool
	if len(m.Sites) > 1 {
		// A multi-site mask can place several sites on one structure;
		// watching the array once per site would double-count its access
		// stats and make the simulator tick it twice per cycle.
		watched = make(map[string]bool, len(m.Sites))
	}
	for _, s := range m.Sites {
		arr, ok := structures[s.Structure]
		if !ok {
			return LogRecord{}, fmt.Errorf("core: mask %d targets unknown structure %q on %s", m.ID, s.Structure, sim.Name())
		}
		// Validate before Arm: bitarray.Arm panics on an out-of-range
		// target, which must surface as a per-run error naming the mask
		// (a hand-edited mask file must not abort the whole campaign
		// process).
		if s.Entry < 0 || s.Entry >= arr.Entries() || s.Bit < 0 || s.Bit >= arr.BitsPerEntry() {
			return LogRecord{}, fmt.Errorf("core: mask %d: fault target (%d,%d) outside the %d×%d geometry of %s on %s",
				m.ID, s.Entry, s.Bit, arr.Entries(), arr.BitsPerEntry(), s.Structure, sim.Name())
		}
		bf, err := s.Fault()
		if err != nil {
			return LogRecord{}, fmt.Errorf("core: mask %d: %v", m.ID, err)
		}
		arr.Arm(bf)
		if watched != nil {
			if watched[s.Structure] {
				continue
			}
			watched[s.Structure] = true
		}
		watch = append(watch, arr)
	}
	sim.WatchArrays(watch)
	sim.SetEarlyStop(earlyStop)
	if stats != nil {
		stats.armed(watch)
		if cp, ok := sim.(CommitProbed); ok && stats.div != nil {
			cp.SetCommitProbe(stats.div)
		}
	}
	if timeoutFactor == 0 {
		timeoutFactor = 3
	}
	var res RunResult
	exited := false
	t0 := time.Now()
	if canWindow && !win.noExit {
		res, exited = wi.RunWindow(golden.Cycles*timeoutFactor, win.post)
	} else {
		res = sim.Run(golden.Cycles * timeoutFactor)
	}
	if stats != nil {
		stats.detailWall = time.Since(t0)
	}
	// Gather before any capture: the watched arrays' raw access counters
	// still bump on capture-time reads.
	if stats != nil {
		stats.gather(watch)
	}
	if exited {
		st, err := wi.CaptureArch()
		if err != nil {
			return LogRecord{}, fmt.Errorf("core: mask %d: window exit: %v", m.ID, err)
		}
		t1 := time.Now()
		var tailSteps uint64
		res, tailSteps = windowTail(wi.Image(), st, golden, timeoutFactor)
		if stats != nil {
			stats.windowExited = true
			stats.fastSteps += tailSteps
			stats.tailSteps = tailSteps
			stats.tailWall = time.Since(t1)
			stats.detailCycles = st.Cycle - startCycle
		}
	} else if canWindow && stats != nil && res.Cycles >= startCycle {
		stats.detailCycles = res.Cycles - startCycle
	}

	rec := LogRecord{
		MaskID:        m.ID,
		Sites:         m.Sites,
		Status:        res.Status.String(),
		ExitCode:      res.ExitCode,
		OutputHash:    hashOutput(res.Output),
		Cycles:        res.Cycles,
		Committed:     res.Committed,
		FatalExc:      "",
		AssertMsg:     res.AssertMsg,
		CommitStalled: res.CommitStalled,
		Weight:        m.Weight,
	}
	if res.Status == RunProcessCrash || res.Status == RunSystemCrash {
		rec.FatalExc = res.FatalExc.String()
	}
	rec.OutputMatch = rec.OutputHash == golden.OutputHash && res.ExitCode == 0
	for _, ev := range res.Events {
		rec.EventKinds = append(rec.EventKinds, ev.Exc.String())
	}
	// The record is fully extracted and every capture is a copy: the
	// simulator is dead, so its RAM can go back to the boot pool.
	release(sim)
	return rec, nil
}

// memReleaser is the optional boot-pool hook of a simulator: a machine
// that can hand its RAM back for recycling once a run is over.
type memReleaser interface{ ReleaseMemory() }

// release hands a dead machine's RAM and array storage back to the boot
// pools. Every checkpoint, handoff capture and profile is a copy, so
// nothing taken from the machine aliases what it releases.
func release(sim Simulator) {
	if mr, ok := sim.(memReleaser); ok {
		mr.ReleaseMemory()
	}
}
