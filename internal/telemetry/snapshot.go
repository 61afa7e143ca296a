package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
)

// Snapshot is a point-in-time view of the aggregate: every counter plus
// the derived rate gauges, serializable as JSON and as Prometheus text
// exposition.
type Snapshot struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Workers        int     `json:"workers"`

	RunsQueued   uint64 `json:"runs_queued"`
	RunsStarted  uint64 `json:"runs_started"`
	RunsDone     uint64 `json:"runs_done"`
	EarlyStops   uint64 `json:"early_stops"`
	DivergedRuns uint64 `json:"diverged_runs"`

	PrunedDead       uint64  `json:"pruned_dead"`
	PrunedReplicated uint64  `json:"pruned_replicated"`
	PruneRate        float64 `json:"prune_rate"`
	LadderRestores   uint64  `json:"ladder_restores"`
	Resumed          uint64  `json:"resumed"`
	PanicsContained  uint64  `json:"panics_contained"`

	WindowedRuns  uint64  `json:"windowed_runs"`
	WindowEntries uint64  `json:"window_entries"`
	WindowExits   uint64  `json:"window_exits"`
	WindowHolds   uint64  `json:"window_holds"`
	FastSteps     uint64  `json:"fast_steps"`
	DetailCycles  uint64  `json:"detail_cycles"`
	FastTierShare float64 `json:"fast_tier_share"`

	RunsPerSec        float64 `json:"runs_per_sec"`
	SimCycles         uint64  `json:"sim_cycles"`
	McyclesPerSec     float64 `json:"mcycles_per_sec"`
	WorkerUtilization float64 `json:"worker_utilization"`

	// Golden-artifact cache (filled by the cache source): the rows it
	// holds, the heap they are estimated to retain, rows dropped by the
	// recency bound, and per artifact kind — reference run, checkpoint
	// ladder, liveness profiles, commit signature, functional
	// fast-forward rung — the lookups served from memory against those
	// that had to build. A shard that was slow because it built shows up
	// as a step in the build counters.
	CacheRows       uint64  `json:"cache_rows"`
	CacheBytes      uint64  `json:"cache_bytes"`
	CacheEvictions  uint64  `json:"cache_evictions"`
	GoldenRuns      uint64  `json:"golden_runs"`
	GoldenHits      uint64  `json:"golden_hits"`
	GoldenHitRate   float64 `json:"golden_hit_rate"`
	LadderBuilds    uint64  `json:"ladder_builds"`
	LadderHits      uint64  `json:"ladder_hits"`
	ProfileBuilds   uint64  `json:"profile_builds"`
	ProfileHits     uint64  `json:"profile_hits"`
	SignatureBuilds uint64  `json:"signature_builds"`
	SignatureHits   uint64  `json:"signature_hits"`
	FFRungHits      uint64  `json:"ff_rung_hits"`
	FFRungBuilds    uint64  `json:"ff_rung_builds"`

	// Dynamic functional-tier dispatches served from the
	// predecoded-instruction cache vs. pushed through the byte-level
	// decoder.
	DecodeHits    uint64  `json:"decode_hits"`
	DecodeMisses  uint64  `json:"decode_misses"`
	DecodeHitRate float64 `json:"decode_hit_rate"`

	WatchedReads   uint64  `json:"watched_reads"`
	WatchedWrites  uint64  `json:"watched_writes"`
	ObservedReads  uint64  `json:"observed_reads"`
	ObservedWrites uint64  `json:"observed_writes"`
	FastPathRate   float64 `json:"fast_path_rate"`

	// Adaptive-campaign gauges: runs cancelled by a cell's sequential
	// stopping rule, cells that stopped before their fixed budget, and
	// the widest achieved margin across decided cells.
	StoppedRuns       uint64  `json:"stopped_runs"`
	CellsStoppedEarly uint64  `json:"cells_stopped_early"`
	EffectiveMargin   float64 `json:"effective_margin"`

	StatusCounts map[string]uint64  `json:"status_counts"`
	ClassCounts  map[string]uint64  `json:"class_counts"`
	Campaigns    []CampaignSnapshot `json:"campaigns,omitempty"`
}

// CampaignSnapshot is the per-{tool, benchmark, structure} slice of a
// Snapshot.
type CampaignSnapshot struct {
	Tool      string            `json:"tool"`
	Benchmark string            `json:"benchmark"`
	Structure string            `json:"structure"`
	Runs      uint64            `json:"runs"`
	Cycles    uint64            `json:"cycles"`
	Classes   map[string]uint64 `json:"classes"`
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// MergeSnapshots folds per-worker snapshots into one fleet-wide view —
// the coordinator's aggregation behind its /snapshot.json and /metrics.
// Raw counters and histograms add, ElapsedSeconds is the fleet maximum,
// and the derived gauges are recomputed from the summed counters (the
// throughput gauges divide the fleet's summed work by the maximum
// elapsed time, so they read as fleet throughput).
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	s := Snapshot{
		StatusCounts: map[string]uint64{},
		ClassCounts:  map[string]uint64{},
	}
	campIdx := map[[3]string]int{}
	var busySeconds float64 // worker-seconds inside runs, reconstructed
	for _, o := range snaps {
		if o.ElapsedSeconds > s.ElapsedSeconds {
			s.ElapsedSeconds = o.ElapsedSeconds
		}
		s.Workers += o.Workers
		s.RunsQueued += o.RunsQueued
		s.RunsStarted += o.RunsStarted
		s.RunsDone += o.RunsDone
		s.EarlyStops += o.EarlyStops
		s.DivergedRuns += o.DivergedRuns
		s.PrunedDead += o.PrunedDead
		s.PrunedReplicated += o.PrunedReplicated
		s.LadderRestores += o.LadderRestores
		s.Resumed += o.Resumed
		s.PanicsContained += o.PanicsContained
		s.WindowedRuns += o.WindowedRuns
		s.WindowEntries += o.WindowEntries
		s.WindowExits += o.WindowExits
		s.WindowHolds += o.WindowHolds
		s.FastSteps += o.FastSteps
		s.DetailCycles += o.DetailCycles
		s.SimCycles += o.SimCycles
		s.CacheRows += o.CacheRows
		s.CacheBytes += o.CacheBytes
		s.CacheEvictions += o.CacheEvictions
		s.GoldenRuns += o.GoldenRuns
		s.GoldenHits += o.GoldenHits
		s.LadderBuilds += o.LadderBuilds
		s.LadderHits += o.LadderHits
		s.ProfileBuilds += o.ProfileBuilds
		s.ProfileHits += o.ProfileHits
		s.SignatureBuilds += o.SignatureBuilds
		s.SignatureHits += o.SignatureHits
		s.FFRungHits += o.FFRungHits
		s.FFRungBuilds += o.FFRungBuilds
		s.DecodeHits += o.DecodeHits
		s.DecodeMisses += o.DecodeMisses
		s.WatchedReads += o.WatchedReads
		s.WatchedWrites += o.WatchedWrites
		s.ObservedReads += o.ObservedReads
		s.ObservedWrites += o.ObservedWrites
		s.StoppedRuns += o.StoppedRuns
		s.CellsStoppedEarly += o.CellsStoppedEarly
		if o.EffectiveMargin > s.EffectiveMargin {
			// The fleet's effective margin is its worst cell's, so the
			// max — not the sum — survives merging.
			s.EffectiveMargin = o.EffectiveMargin
		}
		busySeconds += o.WorkerUtilization * o.ElapsedSeconds * float64(o.Workers)
		for k, v := range o.StatusCounts {
			s.StatusCounts[k] += v
		}
		for k, v := range o.ClassCounts {
			s.ClassCounts[k] += v
		}
		for _, cs := range o.Campaigns {
			key := [3]string{cs.Tool, cs.Benchmark, cs.Structure}
			i, ok := campIdx[key]
			if !ok {
				i = len(s.Campaigns)
				campIdx[key] = i
				s.Campaigns = append(s.Campaigns, CampaignSnapshot{
					Tool: cs.Tool, Benchmark: cs.Benchmark, Structure: cs.Structure,
					Classes: map[string]uint64{},
				})
			}
			s.Campaigns[i].Runs += cs.Runs
			s.Campaigns[i].Cycles += cs.Cycles
			for k, v := range cs.Classes {
				s.Campaigns[i].Classes[k] += v
			}
		}
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
	if s.ElapsedSeconds > 0 {
		s.RunsPerSec = float64(s.RunsDone) / s.ElapsedSeconds
		s.McyclesPerSec = float64(s.SimCycles) / 1e6 / s.ElapsedSeconds
		if s.Workers > 0 {
			s.WorkerUtilization = busySeconds / s.ElapsedSeconds / float64(s.Workers)
		}
	}
	if total := s.GoldenRuns + s.GoldenHits; total > 0 {
		s.GoldenHitRate = float64(s.GoldenHits) / float64(total)
	}
	if total := s.DecodeHits + s.DecodeMisses; total > 0 {
		s.DecodeHitRate = float64(s.DecodeHits) / float64(total)
	}
	if total := s.WatchedReads + s.WatchedWrites; total > 0 {
		s.FastPathRate = 1 - float64(s.ObservedReads+s.ObservedWrites)/float64(total)
	}
	if s.RunsDone > 0 {
		s.PruneRate = float64(s.PrunedDead+s.PrunedReplicated) / float64(s.RunsDone)
	}
	if total := s.FastSteps + s.DetailCycles; total > 0 {
		s.FastTierShare = float64(s.FastSteps) / float64(total)
	}
	return s
}

// classOrder is the paper's presentation order for the known classes;
// anything else (e.g. a coarse NonMasked) sorts after, alphabetically.
var classOrder = []string{"Masked", "SDC", "DUE", "Timeout", "Crash", "Assert"}

// orderedKeys returns the map keys with the known classes first in
// presentation order, the rest alphabetical.
func orderedKeys(m map[string]uint64) []string {
	rank := make(map[string]int, len(classOrder))
	for i, c := range classOrder {
		rank[c] = i
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ri, iok := rank[keys[i]]
		rj, jok := rank[keys[j]]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		default:
			return keys[i] < keys[j]
		}
	})
	return keys
}

// ProgressLine renders the one-line human-readable progress view the
// periodic reporter prints.
func (s Snapshot) ProgressLine() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%7.1fs] %d/%d runs  %.1f runs/s  %.1f Mcyc/s",
		s.ElapsedSeconds, s.RunsDone, s.RunsQueued, s.RunsPerSec, s.McyclesPerSec)
	if s.Workers > 0 {
		fmt.Fprintf(&b, "  util %.0f%%", 100*s.WorkerUtilization)
	}
	if s.GoldenRuns+s.GoldenHits > 0 {
		fmt.Fprintf(&b, "  golden %d+%dhit", s.GoldenRuns, s.GoldenHits)
	}
	if s.WatchedReads+s.WatchedWrites > 0 {
		fmt.Fprintf(&b, "  fastpath %.1f%%", 100*s.FastPathRate)
	}
	if s.PrunedDead+s.PrunedReplicated > 0 {
		fmt.Fprintf(&b, "  pruned %d+%drep (%.1f%%)", s.PrunedDead, s.PrunedReplicated, 100*s.PruneRate)
	}
	if s.LadderRestores > 0 {
		fmt.Fprintf(&b, "  restores %d", s.LadderRestores)
	}
	if s.WindowedRuns > 0 {
		fmt.Fprintf(&b, "  window %d/%d held %d (fast %.1f%%)", s.WindowExits, s.WindowedRuns, s.WindowHolds, 100*s.FastTierShare)
	}
	if s.DivergedRuns > 0 {
		fmt.Fprintf(&b, "  diverged %d", s.DivergedRuns)
	}
	if s.Resumed > 0 {
		fmt.Fprintf(&b, "  resumed %d", s.Resumed)
	}
	if s.CellsStoppedEarly > 0 {
		fmt.Fprintf(&b, "  stopped %dcell/%drun (margin %.3f)", s.CellsStoppedEarly, s.StoppedRuns, s.EffectiveMargin)
	}
	if s.PanicsContained > 0 {
		fmt.Fprintf(&b, "  panics %d", s.PanicsContained)
	}
	if cls := s.ClassString(); cls != "" {
		fmt.Fprintf(&b, "  %s", cls)
	}
	return b.String()
}

// ClassString renders the outcome histogram as "Masked=12 SDC=3 ...".
func (s Snapshot) ClassString() string {
	parts := make([]string, 0, len(s.ClassCounts))
	for _, k := range orderedKeys(s.ClassCounts) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, s.ClassCounts[k]))
	}
	return strings.Join(parts, " ")
}

// SummaryLine renders the final one-line campaign summary: outcome
// counts, wall time, and throughput.
func (s Snapshot) SummaryLine() string {
	return fmt.Sprintf("%d runs in %.1fs (%.1f runs/s, %.1f Mcyc/s): %s",
		s.RunsDone, s.ElapsedSeconds, s.RunsPerSec, s.McyclesPerSec, s.ClassString())
}

// promEscape escapes a Prometheus label value.
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// metricDef declares one scalar Prometheus metric: which Snapshot
// field it exports, under what name and type, and its help line. The
// exposition renders the table in order, so output is deterministic,
// and the prometheus completeness test cross-checks the table against
// the Snapshot struct by reflection — a new numeric snapshot field
// without a table entry fails CI instead of silently missing HELP/TYPE.
type metricDef struct {
	field string // Snapshot struct field name
	name  string // metric name without the faultinject_ prefix
	typ   string // "counter" or "gauge"
	help  string
}

// metricDefs lists every scalar metric in emission order.
var metricDefs = []metricDef{
	{"ElapsedSeconds", "elapsed_seconds", "gauge", "Wall-clock seconds since the collector started."},
	{"Workers", "workers", "gauge", "Scheduler worker-pool size."},
	{"RunsQueued", "runs_queued_total", "counter", "Injection runs entered into the scheduler queue."},
	{"RunsStarted", "runs_started_total", "counter", "Injection runs dispatched to workers."},
	{"RunsDone", "runs_done_total", "counter", "Injection runs finished."},
	{"EarlyStops", "early_stops_total", "counter", "Runs ended early by a provably-masked fault."},
	{"DivergedRuns", "diverged_runs_total", "counter", "Runs whose committed-instruction stream left the golden path."},
	{"PrunedDead", "pruned_dead_total", "counter", "Masks classified Masked at plan time without simulation."},
	{"PrunedReplicated", "pruned_replicated_total", "counter", "Masks whose verdict was copied from an equivalence-class representative."},
	{"PruneRate", "prune_rate", "gauge", "Fraction of finished runs settled without simulation."},
	{"LadderRestores", "ladder_restores_total", "counter", "Runs restored from a checkpoint-ladder rung instead of booting."},
	{"Resumed", "resumed_total", "counter", "Completed masks loaded from the run journal instead of re-simulated."},
	{"PanicsContained", "panics_contained_total", "counter", "Worker panics converted into per-run errors by the containment boundary."},
	{"SimCycles", "sim_cycles_total", "counter", "Simulated cycles across finished runs."},
	{"WindowedRuns", "windowed_runs_total", "counter", "Runs executed under a detail window (sampled execution)."},
	{"WindowEntries", "window_entries_total", "counter", "Runs seeded from the functional fast tier at the window entry."},
	{"WindowExits", "window_exits_total", "counter", "Runs handed back to the functional tier after the fault settled."},
	{"WindowHolds", "window_holds_total", "counter", "Windowed runs that reached the end of the program or the cycle limit without closing their window."},
	{"FastSteps", "fast_instrs_total", "counter", "Instructions executed on the functional fast tier."},
	{"DetailCycles", "detail_cycles_total", "counter", "Cycles simulated cycle-accurately inside detail windows."},
	{"FastTierShare", "fast_tier_share", "gauge", "Share of execution work done on the functional fast tier."},
	{"RunsPerSec", "runs_per_second", "gauge", "Finished runs per wall-clock second."},
	{"McyclesPerSec", "mcycles_per_second", "gauge", "Simulated megacycles per wall-clock second."},
	{"WorkerUtilization", "worker_utilization", "gauge", "Fraction of worker time spent inside runs."},
	{"CacheRows", "cache_rows", "gauge", "Tool/benchmark rows resident in the golden-artifact cache."},
	{"CacheBytes", "cache_bytes", "gauge", "Estimated heap retained by the golden-artifact cache."},
	{"CacheEvictions", "cache_evictions_total", "counter", "Rows dropped from the golden-artifact cache by its recency bound."},
	{"GoldenRuns", "golden_runs_total", "counter", "Golden reference simulations performed."},
	{"GoldenHits", "golden_hits_total", "counter", "Golden references served from the memoizer."},
	{"LadderBuilds", "ladder_builds_total", "counter", "Checkpoint ladders captured."},
	{"LadderHits", "ladder_hits_total", "counter", "Checkpoint ladders served from the memoizer."},
	{"ProfileBuilds", "profile_builds_total", "counter", "Liveness profile sets built by profiled golden replays."},
	{"ProfileHits", "profile_hits_total", "counter", "Liveness profile sets served from the memoizer."},
	{"SignatureBuilds", "signature_builds_total", "counter", "Golden commit-stream signatures built."},
	{"SignatureHits", "signature_hits_total", "counter", "Golden commit-stream signatures served from the memoizer."},
	{"FFRungHits", "ff_rung_hits_total", "counter", "Window entries seeded from a memoized fast-forward rung."},
	{"FFRungBuilds", "ff_rung_builds_total", "counter", "Functional fast-forward rung captures built."},
	{"DecodeHits", "decode_hits_total", "counter", "Functional dispatches served from the predecoded-instruction cache."},
	{"DecodeMisses", "decode_misses_total", "counter", "Functional dispatches decoded from instruction bytes."},
	{"DecodeHitRate", "decode_hit_rate", "gauge", "Share of functional dispatches served predecoded."},
	{"GoldenHitRate", "golden_hit_rate", "gauge", "Memoized fraction of golden lookups."},
	{"WatchedReads", "watched_reads_total", "counter", "Reads of fault-armed arrays."},
	{"WatchedWrites", "watched_writes_total", "counter", "Writes of fault-armed arrays."},
	{"ObservedReads", "observed_reads_total", "counter", "Reads that took the observation slow path."},
	{"ObservedWrites", "observed_writes_total", "counter", "Writes that took the observation slow path."},
	{"FastPathRate", "fast_path_rate", "gauge", "Fraction of watched accesses skipping observation."},
	{"StoppedRuns", "stopped_runs_total", "counter", "Runs cancelled by a cell's sequential stopping rule."},
	{"CellsStoppedEarly", "cells_stopped_early_total", "counter", "Campaign cells whose stopping rule fired before the fixed budget."},
	{"EffectiveMargin", "effective_margin", "gauge", "Widest achieved confidence-interval half-width across decided cells."},
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format, deterministically ordered, every metric carrying HELP and
// TYPE lines. Metric names carry the faultinject_ prefix.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	sv := reflect.ValueOf(s)
	for _, d := range metricDefs {
		f := sv.FieldByName(d.field)
		fmt.Fprintf(&b, "# HELP faultinject_%s %s\n# TYPE faultinject_%s %s\n", d.name, d.help, d.name, d.typ)
		switch f.Kind() {
		case reflect.Uint64:
			if d.typ == "gauge" {
				fmt.Fprintf(&b, "faultinject_%s %g\n", d.name, float64(f.Uint()))
			} else {
				fmt.Fprintf(&b, "faultinject_%s %d\n", d.name, f.Uint())
			}
		case reflect.Int:
			fmt.Fprintf(&b, "faultinject_%s %g\n", d.name, float64(f.Int()))
		case reflect.Float64:
			fmt.Fprintf(&b, "faultinject_%s %g\n", d.name, f.Float())
		default:
			panic(fmt.Sprintf("telemetry: metricDef %s names non-numeric Snapshot field %s", d.name, d.field))
		}
	}

	fmt.Fprintf(&b, "# HELP faultinject_status_total Runs by raw run status.\n# TYPE faultinject_status_total counter\n")
	for _, k := range orderedKeys(s.StatusCounts) {
		fmt.Fprintf(&b, "faultinject_status_total{status=%q} %d\n", promEscape(k), s.StatusCounts[k])
	}
	fmt.Fprintf(&b, "# HELP faultinject_class_total Runs by fault-effect class.\n# TYPE faultinject_class_total counter\n")
	for _, k := range orderedKeys(s.ClassCounts) {
		fmt.Fprintf(&b, "faultinject_class_total{class=%q} %d\n", promEscape(k), s.ClassCounts[k])
	}
	if len(s.Campaigns) > 0 {
		fmt.Fprintf(&b, "# HELP faultinject_campaign_class_total Runs by campaign and class.\n# TYPE faultinject_campaign_class_total counter\n")
		for _, cs := range s.Campaigns {
			for _, k := range orderedKeys(cs.Classes) {
				fmt.Fprintf(&b, "faultinject_campaign_class_total{tool=%q,benchmark=%q,structure=%q,class=%q} %d\n",
					promEscape(cs.Tool), promEscape(cs.Benchmark), promEscape(cs.Structure),
					promEscape(k), cs.Classes[k])
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
