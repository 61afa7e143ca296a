// Package telemetry is the observability layer of the injection
// framework: an allocation-light event path the campaign scheduler emits
// into, a lock-free aggregator of campaign counters and gauges, and the
// consumers built on top of them — periodic human-readable progress
// lines, JSON / Prometheus snapshots served over HTTP, and the JSONL
// injection trace sink.
//
// The hot path is Collector.RunDone: a handful of atomic adds plus a
// sync.Map counter bump per finished injection run. Campaign rows are
// registered up front by the scheduler, so no per-run allocation or map
// construction happens while workers are hot. When no Collector is
// attached to the scheduler the event path costs nothing at all.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// RunEvent is the run-end lifecycle event of one injection run. The
// scheduler fills it after the run's record is in hand and hands it to
// Collector.RunDone, which folds it into the counters and fans it out to
// the attached sinks.
type RunEvent struct {
	// Campaign is the {tool, benchmark, structure} campaign key.
	Campaign string
	// Tool, Benchmark, Structure label the campaign row.
	Tool, Benchmark, Structure string
	// MaskID and Sites are the injected mask's coordinates.
	MaskID int
	Sites  []fault.Site
	// Status is the raw run status string; Class the default parser's
	// classification of the run.
	Status string
	Class  string
	// Cycles is the simulated cycle count; Wall the host wall time of
	// the run.
	Cycles uint64
	Wall   time.Duration
	// Observed reports whether any read consumed the faulty location,
	// and FirstObsCycle when the first one did.
	Observed      bool
	FirstObsCycle uint64
	// EarlyStop names the §III.B proof that ended an early-masked run
	// ("overwritten" or "skipped-invalid"); empty otherwise.
	EarlyStop string
	// WatchedReads/WatchedWrites are the total accesses to the run's
	// watched (fault-armed) arrays; ObservedReads/ObservedWrites the
	// subset that took the observation slow path. Their difference is
	// the bitarray fast-path hit count.
	WatchedReads, WatchedWrites   uint64
	ObservedReads, ObservedWrites uint64
	// Pruned marks a run the liveness pruner settled without simulation:
	// "dead" (provably masked at plan time) or "replicated" (verdict
	// copied from an equivalence-class representative); empty for
	// simulated runs. Pruned events carry zero Cycles/Wall and are
	// excluded from the throughput gauges.
	Pruned string
	// RepMask is the representative's mask ID for replicated runs, -1
	// otherwise.
	RepMask int
	// LadderRestored reports that the run started from a fault-free
	// machine past boot (rather than booting), and RungCycle that cycle:
	// the checkpoint rung a windowed run restored, or the fork cycle an
	// unwindowed run advanced to before its fault was armed.
	LadderRestored bool
	RungCycle      uint64
	// Resumed marks a run whose record was loaded from the durable run
	// journal of an earlier (interrupted) process instead of being
	// re-simulated. Resumed events carry the journaled outcome and trace
	// provenance but zero Wall, and are excluded from the throughput
	// gauges; the trace sink serializes them like any other run, which is
	// what keeps a resumed trace byte-identical to an uninterrupted one.
	Resumed bool
	// Windowed marks a run executed under a detail window (sampled
	// execution); WindowEntered reports that it was seeded from the
	// functional fast tier, WindowExited that it handed back to it once
	// the fault settled, WindowHeld that it instead reached the end of
	// the program or the cycle limit with its window still open (a run
	// that ended early-masked or crashed inside its window is neither).
	// FastSteps counts the instructions the run executed on the
	// functional tier — the entry fast-forward from the rung it resumed
	// from (a rung's own prefix is the fast-forward ladder's one-time
	// cost, not the run's), plus the tail — and DetailCycles the cycles
	// actually simulated cycle-accurately.
	Windowed      bool
	WindowEntered bool
	WindowExited  bool
	WindowHeld    bool
	FastSteps     uint64
	DetailCycles  uint64
	// Diverged reports that the divergence probe saw the run's
	// committed-instruction stream leave the golden path (false when no
	// divergence recording is attached).
	Diverged bool
	// Stopped marks a run the cell's sequential stopping rule cancelled
	// before simulation. Stopped events carry zero Cycles/Wall and are
	// excluded from the throughput gauges, like pruned ones.
	Stopped bool
}

// Sink consumes run-end events, e.g. the JSONL trace writer. RunEvent
// must be safe for concurrent use; the scheduler's workers call it
// directly.
type Sink interface {
	RunEvent(ev RunEvent)
}

// counterMap is a grow-only map of named atomic counters. Bumping an
// existing key is lock-free (sync.Map read path); only the first bump of
// a new key allocates.
type counterMap struct{ m sync.Map }

func (c *counterMap) add(key string, n uint64) {
	if v, ok := c.m.Load(key); ok {
		v.(*atomic.Uint64).Add(n)
		return
	}
	v, _ := c.m.LoadOrStore(key, new(atomic.Uint64))
	v.(*atomic.Uint64).Add(n)
}

func (c *counterMap) snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	c.m.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Uint64).Load()
		return true
	})
	return out
}

// CampaignStats is the per-{tool, benchmark, structure} aggregate. The
// scheduler registers one per campaign before dispatch and hands the
// pointer to every run of that campaign, so the hot path never looks a
// campaign up.
type CampaignStats struct {
	Tool, Benchmark, Structure string

	runs    atomic.Uint64
	cycles  atomic.Uint64
	classes counterMap
}

func (cs *CampaignStats) record(ev RunEvent) {
	cs.runs.Add(1)
	cs.cycles.Add(ev.Cycles)
	cs.classes.add(ev.Class, 1)
}

// Collector is the lock-free aggregator of campaign telemetry. One
// Collector may span several core.RunConfig calls (e.g. the figures of a
// full reproduction run one at a time); counters only ever grow.
type Collector struct {
	startNanos atomic.Int64 // wall-clock start, first Start wins
	workers    atomic.Int64

	queued       atomic.Uint64
	started      atomic.Uint64
	done         atomic.Uint64
	earlyStops   atomic.Uint64
	divergedRuns atomic.Uint64
	simCycles    atomic.Uint64
	busyNanos    atomic.Int64

	prunedDead       atomic.Uint64
	prunedReplicated atomic.Uint64
	ladderRestores   atomic.Uint64
	resumed          atomic.Uint64
	panicsContained  atomic.Uint64

	windowedRuns  atomic.Uint64
	windowEntries atomic.Uint64
	windowExits   atomic.Uint64
	windowHolds   atomic.Uint64
	fastSteps     atomic.Uint64
	detailCycles  atomic.Uint64

	watchedReads, watchedWrites   atomic.Uint64
	observedReads, observedWrites atomic.Uint64

	stoppedRuns     atomic.Uint64
	cellsStopped    atomic.Uint64
	effectiveMargin atomic.Uint64 // math.Float64bits, CAS-max across cells

	statuses counterMap
	classes  counterMap

	cacheSource  atomic.Value // func(*Snapshot)
	decodeSource atomic.Value // func() (hits, misses uint64)
	sinks        atomic.Value // []Sink, copy-on-write

	mu        sync.Mutex // guards campaign registration only
	campaigns []*CampaignStats
	index     map[string]*CampaignStats
}

// New returns an empty Collector.
func New() *Collector {
	return &Collector{index: make(map[string]*CampaignStats)}
}

// Start stamps the wall-clock origin of the rate gauges and records the
// worker-pool size. The first call wins the origin; the worker count is
// updated every call (the last matrix dispatched decides it).
func (c *Collector) Start(workers int) {
	c.startNanos.CompareAndSwap(0, time.Now().UnixNano())
	c.workers.Store(int64(workers))
}

// AddQueued accounts n runs entering the scheduler queue.
func (c *Collector) AddQueued(n int) { c.queued.Add(uint64(n)) } //nolint:gosec // n >= 0

// RunStarted accounts one run leaving the queue for a worker.
func (c *Collector) RunStarted() { c.started.Add(1) }

// PanicContained accounts one worker panic the scheduler's recover
// boundary converted into a per-run error.
func (c *Collector) PanicContained() { c.panicsContained.Add(1) }

// CellStopped accounts one campaign cell whose sequential stopping rule
// fired before the fixed budget was exhausted, and folds the cell's
// achieved margin into the effective-margin gauge (the worst — widest —
// margin across decided cells, a conservative summary of the fleet's
// statistical resolution).
func (c *Collector) CellStopped(effectiveMargin float64) {
	c.cellsStopped.Add(1)
	c.ObserveCellMargin(effectiveMargin)
}

// ObserveCellMargin folds one cell's achieved margin into the
// effective-margin gauge without counting a stop (used for cells that
// ran to budget, and for exhaustive cells reporting margin zero).
func (c *Collector) ObserveCellMargin(margin float64) {
	if margin < 0 || math.IsNaN(margin) {
		return
	}
	for {
		old := c.effectiveMargin.Load()
		if math.Float64frombits(old) >= margin {
			return
		}
		if c.effectiveMargin.CompareAndSwap(old, math.Float64bits(margin)) {
			return
		}
	}
}

// Campaign registers (or returns the existing) per-campaign aggregate
// for a key. Registration takes a lock; it happens once per campaign at
// matrix-build time, never per run.
func (c *Collector) Campaign(key, tool, bench, structure string) *CampaignStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cs, ok := c.index[key]; ok {
		return cs
	}
	cs := &CampaignStats{Tool: tool, Benchmark: bench, Structure: structure}
	c.index[key] = cs
	c.campaigns = append(c.campaigns, cs)
	return cs
}

// SetCacheSource attaches a live reader of the golden-artifact cache:
// f fills the snapshot's cache fields (rows resident, estimated bytes,
// evictions, and hits and builds per artifact kind). The snapshot pulls
// it lazily so the cache needs no back-reference to the collector.
func (c *Collector) SetCacheSource(f func(*Snapshot)) {
	c.cacheSource.Store(f)
}

// SetDecodeSource attaches a live reader of the functional tier's
// predecoded-instruction cache statistics (dispatches served from the
// cache, dispatches through the byte-level decoder); pulled lazily like
// the cache source.
func (c *Collector) SetDecodeSource(f func() (hits, misses uint64)) {
	c.decodeSource.Store(f)
}

// AddSink attaches a run-event sink (e.g. a trace writer).
func (c *Collector) AddSink(s Sink) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sinks []Sink
	if v := c.sinks.Load(); v != nil {
		sinks = append(sinks, v.([]Sink)...)
	}
	c.sinks.Store(append(sinks, s))
}

// DetachSinks drops every attached sink: a collector that outlives its
// campaign to serve snapshots must not keep what the sinks buffered.
func (c *Collector) DetachSinks() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sinks.Store([]Sink(nil))
}

// RunDone folds one finished run into the aggregate and fans the event
// out to the sinks. cs may be nil for runs outside any registered
// campaign.
func (c *Collector) RunDone(cs *CampaignStats, ev RunEvent) {
	c.done.Add(1)
	if ev.Pruned == "" && !ev.Resumed {
		// Pruned runs simulated nothing and resumed runs simulated in an
		// earlier process; keeping their cycles out of the accumulator
		// keeps the Mcycles/s gauge about this process's work.
		c.simCycles.Add(ev.Cycles)
	}
	if ev.Resumed {
		c.resumed.Add(1)
	}
	c.busyNanos.Add(int64(ev.Wall))
	c.watchedReads.Add(ev.WatchedReads)
	c.watchedWrites.Add(ev.WatchedWrites)
	c.observedReads.Add(ev.ObservedReads)
	c.observedWrites.Add(ev.ObservedWrites)
	if ev.EarlyStop != "" {
		c.earlyStops.Add(1)
	}
	if ev.Diverged {
		c.divergedRuns.Add(1)
	}
	switch ev.Pruned {
	case "dead":
		c.prunedDead.Add(1)
	case "replicated":
		c.prunedReplicated.Add(1)
	}
	if ev.LadderRestored {
		c.ladderRestores.Add(1)
	}
	if ev.Stopped {
		c.stoppedRuns.Add(1)
	}
	if ev.Windowed {
		c.windowedRuns.Add(1)
	}
	if ev.WindowEntered {
		c.windowEntries.Add(1)
	}
	if ev.WindowExited {
		c.windowExits.Add(1)
	}
	if ev.WindowHeld {
		c.windowHolds.Add(1)
	}
	c.fastSteps.Add(ev.FastSteps)
	c.detailCycles.Add(ev.DetailCycles)
	c.statuses.add(ev.Status, 1)
	c.classes.add(ev.Class, 1)
	if cs != nil {
		cs.record(ev)
	}
	if v := c.sinks.Load(); v != nil {
		for _, s := range v.([]Sink) {
			s.RunEvent(ev)
		}
	}
}

// Snapshot captures a consistent-enough view of every counter and the
// derived gauges. Counters are read individually (not under one lock),
// so totals may be off by in-flight runs — fine for live metrics; the
// final snapshot after the scheduler returns is exact.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Workers:           int(c.workers.Load()),
		RunsQueued:        c.queued.Load(),
		RunsStarted:       c.started.Load(),
		RunsDone:          c.done.Load(),
		EarlyStops:        c.earlyStops.Load(),
		DivergedRuns:      c.divergedRuns.Load(),
		PrunedDead:        c.prunedDead.Load(),
		PrunedReplicated:  c.prunedReplicated.Load(),
		LadderRestores:    c.ladderRestores.Load(),
		Resumed:           c.resumed.Load(),
		PanicsContained:   c.panicsContained.Load(),
		SimCycles:         c.simCycles.Load(),
		WindowedRuns:      c.windowedRuns.Load(),
		WindowEntries:     c.windowEntries.Load(),
		WindowExits:       c.windowExits.Load(),
		WindowHolds:       c.windowHolds.Load(),
		FastSteps:         c.fastSteps.Load(),
		DetailCycles:      c.detailCycles.Load(),
		WatchedReads:      c.watchedReads.Load(),
		WatchedWrites:     c.watchedWrites.Load(),
		ObservedReads:     c.observedReads.Load(),
		ObservedWrites:    c.observedWrites.Load(),
		StoppedRuns:       c.stoppedRuns.Load(),
		CellsStoppedEarly: c.cellsStopped.Load(),
		EffectiveMargin:   math.Float64frombits(c.effectiveMargin.Load()),
		StatusCounts:      c.statuses.snapshot(),
		ClassCounts:       c.classes.snapshot(),
	}
	if start := c.startNanos.Load(); start != 0 {
		s.ElapsedSeconds = time.Since(time.Unix(0, start)).Seconds()
	}
	if s.ElapsedSeconds > 0 {
		s.RunsPerSec = float64(s.RunsDone) / s.ElapsedSeconds
		s.McyclesPerSec = float64(s.SimCycles) / 1e6 / s.ElapsedSeconds
		if s.Workers > 0 {
			s.WorkerUtilization = float64(c.busyNanos.Load()) / 1e9 / s.ElapsedSeconds / float64(s.Workers)
		}
	}
	if v := c.cacheSource.Load(); v != nil {
		v.(func(*Snapshot))(&s)
		if total := s.GoldenRuns + s.GoldenHits; total > 0 {
			s.GoldenHitRate = float64(s.GoldenHits) / float64(total)
		}
	}
	if v := c.decodeSource.Load(); v != nil {
		s.DecodeHits, s.DecodeMisses = v.(func() (uint64, uint64))()
		if total := s.DecodeHits + s.DecodeMisses; total > 0 {
			s.DecodeHitRate = float64(s.DecodeHits) / float64(total)
		}
	}
	if total := s.WatchedReads + s.WatchedWrites; total > 0 {
		s.FastPathRate = 1 - float64(s.ObservedReads+s.ObservedWrites)/float64(total)
	}
	if s.RunsDone > 0 {
		s.PruneRate = float64(s.PrunedDead+s.PrunedReplicated) / float64(s.RunsDone)
	}
	if total := s.FastSteps + s.DetailCycles; total > 0 {
		// Fast-tier instructions and detail-window cycles are the two
		// tiers' units of work actually performed; their ratio is the
		// share of execution the detail window moved off the expensive
		// model. (SimCycles is the wrong denominator: composed windowed
		// records report whole-run cycle counts, fast-forwarded spans
		// included.)
		s.FastTierShare = float64(s.FastSteps) / float64(total)
	}
	c.mu.Lock()
	campaigns := append([]*CampaignStats(nil), c.campaigns...)
	c.mu.Unlock()
	for _, cs := range campaigns {
		s.Campaigns = append(s.Campaigns, CampaignSnapshot{
			Tool:      cs.Tool,
			Benchmark: cs.Benchmark,
			Structure: cs.Structure,
			Runs:      cs.runs.Load(),
			Cycles:    cs.cycles.Load(),
			Classes:   cs.classes.snapshot(),
		})
	}
	sort.Slice(s.Campaigns, func(i, j int) bool {
		a, b := s.Campaigns[i], s.Campaigns[j]
		if a.Tool != b.Tool {
			return a.Tool < b.Tool
		}
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		return a.Structure < b.Structure
	})
	return s
}
