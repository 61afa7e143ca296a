package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// ConfigSchemaVersion is the CampaignConfig format version this build
// writes and serves; the distributed protocol carries it so a worker
// from a newer build never misreads a coordinator's config (and vice
// versa).
//
// Version history:
//
//	1 — initial consolidated config (PR 5).
//	2 — detail-window fields (detail_window, window_pre_cycles,
//	    window_post_cycles, window_verify). A config that uses none of
//	    them is served as version 1, so legacy readers keep working.
//	3 — divergence-provenance recording (divergence). Served as the
//	    lowest version that can express the config, as before.
//	4 — functional-tier turbo knobs (ff_rungs, no_decode_cache). Both
//	    only tuned how windowed runs execute, with byte-identical
//	    results across settings. Both fields are retired — the predecode
//	    cache and the fast-forward ladder are unconditional — so the
//	    keys decode as no-ops and no config is served at version 4.
//	5 — adaptive campaign control (stop_margin, stop_confidence,
//	    stop_check_every, exhaustive, importance_sampling). As before, a
//	    config using none of them is served at the lowest version that
//	    expresses it. The last of them is retired — a uniform draw
//	    estimates the same class proportions — so its key decodes as a
//	    no-op.
const ConfigSchemaVersion = 5

// CampaignCell is one {tool, benchmark, structure} campaign of a
// config. Cells reference tools and benchmarks by name — a config is
// fully serializable, which is what lets the distributed coordinator
// hand the exact same description to remote workers that the local path
// consumes — and a Resolver materializes the simulator factories.
type CampaignCell struct {
	Tool      string `json:"tool"`
	Benchmark string `json:"benchmark"`
	Structure string `json:"structure"`
	// Injections overrides CampaignConfig.Injections for this cell
	// (0: inherit).
	Injections int `json:"injections,omitempty"`
	// Seed overrides CampaignConfig.Seed for this cell (0: inherit).
	Seed int64 `json:"seed,omitempty"`
	// Masks, when non-empty, is the explicit fault population of the
	// cell (e.g. loaded from a masks repository); Injections/Seed/Model
	// generation is skipped and LiveOnly remapping does not apply —
	// explicit masks are injected exactly as given.
	Masks []fault.Mask `json:"masks,omitempty"`
}

// CampaignConfig is the consolidated, validated description of an
// injection campaign matrix — the one options type: the CLIs bind their
// flags onto its fields, the report harness carries one, and the
// scheduler reads every knob from it. The same value drives local
// execution (RunConfig), shard execution on a remote worker (RunShard),
// and the coordinator's planning; it serializes as JSON for the wire and
// for config files.
//
// Everything in a CampaignConfig is portable: process-local resources
// (golden caches, telemetry collectors, journals) attach separately via
// Attach, so shipping a config to another machine can never smuggle a
// dangling handle along.
type CampaignConfig struct {
	// SchemaVersion stamps the config format version; zero means
	// "current" on the way in and is stamped to ConfigSchemaVersion when
	// the config is served over the wire.
	SchemaVersion int `json:"schema_version,omitempty"`
	// Campaigns are the cells of the matrix.
	Campaigns []CampaignCell `json:"campaigns"`
	// Injections is the per-cell mask count when a cell has no explicit
	// Masks and no Injections override.
	Injections int `json:"injections,omitempty"`
	// Seed drives deterministic mask generation (cells may override).
	Seed int64 `json:"seed,omitempty"`
	// Model is the generated fault model ("transient", "intermittent",
	// "permanent"); empty means transient.
	Model string `json:"model,omitempty"`
	// LiveOnly remaps generated fault entries onto the entries live at
	// the end of the golden run (conditional vulnerability).
	LiveOnly bool `json:"live_only,omitempty"`
	// TimeoutFactor multiplies the fault-free cycle count to form the
	// per-run cycle limit; 0 means the paper's 3.
	TimeoutFactor uint64 `json:"timeout_factor,omitempty"`
	// DisableEarlyStop turns off the §III.B optimizations (ablation).
	DisableEarlyStop bool `json:"disable_early_stop,omitempty"`
	// UseCheckpoint is ignored: every campaign shares its rows' fault-free
	// prefix through the checkpoint ladder (see CheckpointLadder). The
	// field stays only so that old configs and /v1 submissions carrying it
	// still decode, and because the benchmark module in bench/ compiles
	// against it; ROADMAP E(a), the change that may touch bench/,
	// removes it.
	UseCheckpoint bool `json:"use_checkpoint,omitempty"`
	// Workers is the simulation worker-pool size of the executing
	// process — each distributed worker applies it locally; 0 means
	// GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Prune enables golden-run liveness pruning; PruneVerify
	// additionally simulates up to that many pruned masks per campaign
	// and fails on a class mismatch (implies Prune).
	Prune       bool `json:"prune,omitempty"`
	PruneVerify int  `json:"prune_verify,omitempty"`
	// CheckpointLadder is the number of evenly spaced restore rungs per
	// row; 0 means the default ladder of 4. A run with no window forks
	// at its fault from the highest rung below it or the row's fork
	// point, whichever is later: the machine in flight there, so it is
	// the boot run of the same mask from there on and K changes no
	// record outside a detail window.
	// Under one it does: a window whose entry falls at or below a rung
	// opens cycle-accurately from that rung instead of from the
	// functional tier's approximate entry, so K decides how many windows
	// are entered exactly.
	CheckpointLadder int `json:"checkpoint_ladder,omitempty"`
	// RunWallLimit bounds the host wall-clock time of a single run
	// (serialized as nanoseconds); 0 is off.
	RunWallLimit time.Duration `json:"run_wall_limit_ns,omitempty"`
	// DetailWindow enables sampled execution: each run simulates
	// cycle-accurately only inside a detail window around its fault and
	// on the functional interpreter everywhere else. WindowPre and
	// WindowPost are the margins, in cycles, of cycle-accurate
	// simulation kept before the earliest fault arms and after the last
	// fault settles. WindowVerify re-simulates up to that many windowed
	// masks per campaign fully cycle-accurately from the same window
	// entry and fails on an outcome-class disagreement (implies
	// DetailWindow).
	DetailWindow bool   `json:"detail_window,omitempty"`
	WindowPre    uint64 `json:"window_pre_cycles,omitempty"`
	WindowPost   uint64 `json:"window_post_cycles,omitempty"`
	WindowVerify int    `json:"window_verify,omitempty"`
	// Divergence enables provenance recording: every run is probed
	// against the golden commit-stream signature and a per-mask
	// divergence record (first architectural divergence, corruption
	// footprint, masking depth) is produced alongside the campaign logs.
	// In a distributed campaign the workers measure and the coordinator
	// assembles the single-node-identical record file.
	Divergence bool `json:"divergence,omitempty"`
	// StopMargin arms sequential-confidence early stopping: a cell stops
	// once every outcome-class proportion is estimated to ±StopMargin at
	// StopConfidence, evaluated every StopCheckEvery completed runs (0:
	// a default cadence) in the cell's deterministic simulation order.
	// Remaining masks are settled as stopped-early provenance rows, so
	// logs, traces and journals stay byte-stable and resumable. Zero
	// disables the rule; StopConfidence is required with it.
	StopMargin     float64 `json:"stop_margin,omitempty"`
	StopConfidence float64 `json:"stop_confidence,omitempty"`
	StopCheckEvery int     `json:"stop_check_every,omitempty"`
	// Exhaustive replaces sampling with the equivalence-class-collapsed
	// census of the whole single-bit transient fault population: one
	// cycle-mass-weighted representative mask per liveness interval per
	// (entry, bit), enumerated from the golden-run profile. Each mask
	// weighs the cycles its interval covers, so the weights tile the
	// population and the weighted shares are exact. Implies Prune; the
	// cell result is stamped complete with zero margin. Mutually
	// exclusive with explicit masks, generated-count sampling knobs,
	// live_only and stop_margin.
	Exhaustive bool `json:"exhaustive,omitempty"`
}

// usesWindow reports whether any detail-window field is in use — the
// schema-version-2 surface. Configs without it are served as version 1
// so legacy readers keep working.
func (c CampaignConfig) usesWindow() bool {
	return c.DetailWindow || c.WindowPre != 0 || c.WindowPost != 0 || c.WindowVerify != 0
}

// usesAdaptive reports whether any adaptive-control field is in use —
// the schema-version-5 surface.
func (c CampaignConfig) usesAdaptive() bool {
	return c.StopMargin != 0 || c.StopConfidence != 0 || c.StopCheckEvery != 0 ||
		c.Exhaustive
}

// WireSchemaVersion is the schema version a zero-version config is
// stamped with when served over the wire: the lowest version that can
// express it.
func (c CampaignConfig) WireSchemaVersion() int {
	if c.usesAdaptive() {
		return 5
	}
	if c.Divergence {
		return 3
	}
	if c.usesWindow() {
		return 2
	}
	return 1
}

// Validate checks the config and names the offending field of the first
// problem, in the JSON spelling, so a CLI or protocol error message
// points at what to fix.
func (c CampaignConfig) Validate() error {
	bad := func(field, format string, args ...any) error {
		return fmt.Errorf("core: campaign config: %s: %s", field, fmt.Sprintf(format, args...))
	}
	if c.SchemaVersion > ConfigSchemaVersion {
		return bad("schema_version", "version %d is newer than this build understands (<= %d)", c.SchemaVersion, ConfigSchemaVersion)
	}
	if len(c.Campaigns) == 0 {
		return bad("campaigns", "empty — nothing to run")
	}
	if c.Injections < 0 {
		return bad("injections", "negative count %d", c.Injections)
	}
	if c.Model != "" {
		if _, err := fault.Model(c.Model).Kind(); err != nil {
			return bad("model", "unknown model %q", c.Model)
		}
	}
	if c.Workers < 0 {
		return bad("workers", "negative pool size %d", c.Workers)
	}
	if c.PruneVerify < 0 {
		return bad("prune_verify", "negative sample size %d", c.PruneVerify)
	}
	if c.CheckpointLadder < 0 {
		return bad("checkpoint_ladder", "negative rung count %d", c.CheckpointLadder)
	}
	if c.RunWallLimit < 0 {
		return bad("run_wall_limit_ns", "negative limit %d", c.RunWallLimit)
	}
	if c.WindowVerify < 0 {
		return bad("window_verify", "negative sample size %d", c.WindowVerify)
	}
	if !c.DetailWindow && c.WindowVerify == 0 && (c.WindowPre != 0 || c.WindowPost != 0) {
		return bad("detail_window", "window margins set but windowing is off")
	}
	// Adaptive campaign control. The comparisons are NaN-safe: a NaN
	// margin or confidence fails the positive-range test and is rejected
	// rather than silently disabling the rule.
	if c.StopMargin != 0 && !(c.StopMargin > 0 && c.StopMargin < 1) {
		return bad("stop_margin", "margin %v outside (0, 1)", c.StopMargin)
	}
	if c.StopMargin > 0 {
		if _, err := fault.ZFor(c.StopConfidence); err != nil {
			return bad("stop_confidence", "confidence %v outside (0, 1) (required with stop_margin)", c.StopConfidence)
		}
	} else {
		if c.StopConfidence != 0 {
			return bad("stop_confidence", "set without stop_margin")
		}
		if c.StopCheckEvery != 0 {
			return bad("stop_check_every", "set without stop_margin")
		}
	}
	if c.StopCheckEvery < 0 {
		return bad("stop_check_every", "negative cadence %d", c.StopCheckEvery)
	}
	if c.Exhaustive {
		if c.StopMargin != 0 {
			return bad("exhaustive", "a census has nothing to stop early (unset stop_margin)")
		}
		if c.LiveOnly {
			return bad("exhaustive", "the census already enumerates liveness exactly (unset live_only)")
		}
		if c.model() != fault.ModelTransient {
			return bad("exhaustive", "the census covers transient faults only, not %q", c.Model)
		}
	}
	for i, cell := range c.Campaigns {
		field := func(name string) string { return fmt.Sprintf("campaigns[%d].%s", i, name) }
		if cell.Tool == "" {
			return bad(field("tool"), "empty")
		}
		if cell.Benchmark == "" {
			return bad(field("benchmark"), "empty")
		}
		if cell.Structure == "" {
			return bad(field("structure"), "empty")
		}
		if cell.Injections < 0 {
			return bad(field("injections"), "negative count %d", cell.Injections)
		}
		if cell.Seed < 0 {
			return bad(field("seed"), "negative seed %d", cell.Seed)
		}
		if c.Exhaustive && len(cell.Masks) > 0 {
			return bad(field("masks"), "explicit masks are mutually exclusive with exhaustive")
		}
		// An exhaustive cell's population comes from the census, not an
		// injection count.
		if !c.Exhaustive && len(cell.Masks) == 0 && c.MaskCount(i) <= 0 {
			return bad(field("injections"), "no explicit masks and no injection count (set injections on the cell or the config)")
		}
		for j, m := range cell.Masks {
			for k, s := range m.Sites {
				if _, err := s.Model.Kind(); err != nil {
					return bad(fmt.Sprintf("campaigns[%d].masks[%d].sites[%d].model", i, j, k), "unknown model %q", s.Model)
				}
			}
		}
	}
	return nil
}

// MaskCount reports how many masks campaign cell i will run — the shard
// planner's unit of work. It needs no simulator: explicit masks count
// themselves, generated ones come from the configured injection counts.
func (c CampaignConfig) MaskCount(i int) int {
	cell := c.Campaigns[i]
	if len(cell.Masks) > 0 {
		return len(cell.Masks)
	}
	if cell.Injections > 0 {
		return cell.Injections
	}
	return c.Injections
}

// Keys returns the campaign key of every cell, in cell order — the
// labels of journal lines, telemetry rows and log files.
func (c CampaignConfig) Keys() []string {
	keys := make([]string, len(c.Campaigns))
	for i, cell := range c.Campaigns {
		keys[i] = fault.CampaignKey(cell.Tool, cell.Benchmark, cell.Structure)
	}
	return keys
}

func (c CampaignConfig) model() fault.Model {
	if c.Model == "" {
		return fault.ModelTransient
	}
	return fault.Model(c.Model)
}

func (c CampaignConfig) cellSeed(i int) int64 {
	if s := c.Campaigns[i].Seed; s != 0 {
		return s
	}
	return c.Seed
}

// Resolver materializes the simulator factory of a {tool, benchmark}
// pair named by a config cell. The core package defines only the shape:
// the sims wiring lives above core (cli.Resolve), and tests substitute
// fakes.
type Resolver func(tool, benchmark string) (Factory, error)

// Attach carries the process-local, non-serializable resources of a
// config run — exactly the parts a CampaignConfig deliberately cannot
// express.
type Attach struct {
	// Golden shares a golden-run memoizer across calls; nil uses a
	// private cache.
	Golden *GoldenCache
	// Telemetry receives the run-end event stream; nil costs nothing.
	Telemetry *telemetry.Collector
	// Journal receives one fsync'd line per completed run; Resume loads
	// completed masks from it instead of re-simulating. RunShard ignores
	// both — in a distributed campaign the coordinator owns the journal
	// as the exactly-once completion ledger.
	Journal *fault.Journal
	Resume  bool
	// Tracer emits campaign/cell/run/phase spans parented under
	// TraceParent; SpanWorker labels the emitting process on run and
	// phase spans.
	Tracer      *telemetry.Tracer
	TraceParent string
	SpanWorker  string
}

// buildSpec materializes the scheduler spec of cell i: the factory from
// the resolver, and the mask population either verbatim (explicit
// masks) or generated deterministically from {seed, model, injections}
// against the golden geometry. Two processes building the same cell of
// the same config produce identical masks — the root of the distributed
// path's byte-identity. Its golden run and — for a census — the row's
// replay build on pool.
func (c CampaignConfig) buildSpec(i int, resolve Resolver, cache *GoldenCache, pool *planPool) (CampaignSpec, error) {
	cell := c.Campaigns[i]
	factory, err := resolve(cell.Tool, cell.Benchmark)
	if err != nil {
		return CampaignSpec{}, err
	}
	masks := cell.Masks
	if len(masks) == 0 {
		golden, err := cache.golden(pool, cell.Tool, cell.Benchmark, factory)
		if err != nil {
			return CampaignSpec{}, err
		}
		entries, bits, ok, err := cache.Geometry(cell.Tool, cell.Benchmark, factory, cell.Structure)
		if err != nil {
			return CampaignSpec{}, err
		}
		if !ok {
			return CampaignSpec{}, fmt.Errorf("core: campaigns[%d]: %s has no structure %q", i, golden.Tool, cell.Structure)
		}
		genSpec := fault.GeneratorSpec{
			Structure: cell.Structure, Entries: entries, BitsPerEntry: bits,
			MaxCycle: golden.Cycles, Model: c.model(),
			Count: c.MaskCount(i), Seed: c.cellSeed(i),
		}
		if c.Exhaustive {
			// The census reads the boot liveness profile of the cell's
			// structure — the same profile the pruner derives its plan
			// from, so the equivalence classes agree by construction.
			d, derr := cache.derived(pool, cell.Tool, cell.Benchmark, factory, c.want())
			if derr != nil {
				return CampaignSpec{}, derr
			}
			prof := d.profiles[cell.Structure]
			if prof == nil {
				return CampaignSpec{}, fmt.Errorf("core: campaigns[%d]: %s/%s exposes no liveness profile for %s (simulator has no cycle source)",
					i, cell.Tool, cell.Benchmark, cell.Structure)
			}
			masks, err = fault.EnumerateExhaustive(genSpec, prof)
		} else {
			masks, err = fault.Generate(genSpec)
		}
		if err != nil {
			return CampaignSpec{}, err
		}
		if c.LiveOnly {
			live, err := cache.LiveEntries(cell.Tool, cell.Benchmark, factory, cell.Structure)
			if err != nil {
				return CampaignSpec{}, err
			}
			if len(live) == 0 {
				return CampaignSpec{}, fmt.Errorf("core: campaigns[%d]: no live entries in %s at the end of the %s/%s golden run",
					i, cell.Structure, cell.Tool, cell.Benchmark)
			}
			for mi := range masks {
				for si := range masks[mi].Sites {
					masks[mi].Sites[si].Entry = live[masks[mi].Sites[si].Entry%len(live)]
				}
			}
		}
	}
	return CampaignSpec{
		Tool: cell.Tool, Benchmark: cell.Benchmark, Structure: cell.Structure,
		Masks: masks, Factory: factory,
	}, nil
}

// want names every golden-derived artifact the config's plan asks each
// row for: the checkpoint ladder of every campaign, the liveness
// profiles of every structure the config targets when anything prunes
// or takes a census, and the commit signature when divergence is
// measured.
func (c CampaignConfig) want() derivedWant {
	w := derivedWant{k: c.ladderRungs(), sig: c.Divergence}
	if c.Prune || c.Exhaustive || c.PruneVerify > 0 {
		w.structures = c.targetStructures()
	}
	return w
}

// targetStructures returns the sorted union of the cells' structures
// and the structures their explicit masks' sites target.
func (c CampaignConfig) targetStructures() []string {
	set := make(map[string]bool)
	for _, cell := range c.Campaigns {
		set[cell.Structure] = true
		for _, m := range cell.Masks {
			for _, s := range m.Sites {
				set[s.Structure] = true
			}
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ladderRungs is the campaign's checkpoint-ladder K.
func (c CampaignConfig) ladderRungs() int {
	if c.CheckpointLadder == 0 {
		return defaultCheckpointRungs
	}
	return c.CheckpointLadder
}

// BuildSpecs materializes every cell of the config (see buildSpec), the
// cells concurrently under the config's Workers bound (see planPool);
// the error of the first failing cell in cell order is returned. A cell
// whose masks are generated ran its row's golden run in its task, and
// asks there for everything the plan will ask the row for: the row's
// replay then starts when its golden run ends, not when the last row's
// does, and the plan's lookup is a hit.
func (c CampaignConfig) BuildSpecs(resolve Resolver, cache *GoldenCache) ([]CampaignSpec, error) {
	specs := make([]CampaignSpec, len(c.Campaigns))
	pool := newPlanPool(c.Workers)
	want := c.want()
	err := pool.each(len(specs), func(i int) error {
		var err error
		if specs[i], err = c.buildSpec(i, resolve, cache, pool); err != nil || len(c.Campaigns[i].Masks) > 0 {
			return err
		}
		_, err = cache.derived(pool, specs[i].Tool, specs[i].Benchmark, specs[i].Factory, want)
		return err
	})
	if err != nil {
		return nil, err
	}
	return specs, nil
}

// RunConfig executes a whole campaign config locally — the consolidated
// entry point the CLIs use, and the reference semantics the distributed
// path must reproduce byte-for-byte.
func RunConfig(cfg CampaignConfig, resolve Resolver, att Attach) ([]*CampaignResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if resolve == nil {
		return nil, fmt.Errorf("core: RunConfig needs a Resolver to materialize simulator factories")
	}
	cache := att.Golden
	if cache == nil {
		cache = NewGoldenCache()
	}
	specs, err := cfg.BuildSpecs(resolve, cache)
	if err != nil {
		return nil, err
	}
	r, err := runMatrix(cfg, specs, att, cache, nil)
	if err != nil {
		return nil, err
	}
	return r.results()
}

// RunShard executes the mask window [lo, hi) of campaign cell `campaign`
// — a distributed worker's unit of work. The full cell is rebuilt
// deterministically from the config (masks, checkpoint placement, prune
// plan), so every plan-time decision matches what a single-node run of
// the whole config would decide; only the windowed masks simulate.
// Pruned-dead rows are settled locally (their verdict needs only the
// golden reference); replicated rows are returned as stubs for the
// coordinator to resolve against their representative at merge time.
//
// A shard run commits to nothing: of att only Golden and the tracer
// fields are used, and the window's outcomes are returned for whoever
// merges the shards to commit (CellSinks.Commit) — the coordinator owns
// the journal of a distributed campaign as its exactly-once completion
// ledger. att.Golden is worth sharing across a worker's shards —
// goldens, ladders and liveness profiles all memoize in it.
func RunShard(cfg CampaignConfig, campaign, lo, hi int, resolve Resolver, att Attach) (*ShardResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Exhaustive {
		return nil, fmt.Errorf("core: exhaustive campaigns have no fixed shard geometry (the census size is profile-derived); run them single-node")
	}
	// The coordinator owns the global stop decision of an adaptive
	// distributed campaign; a shard must run its whole window, so the
	// local stopping rule is disarmed here.
	cfg.StopMargin, cfg.StopConfidence, cfg.StopCheckEvery = 0, 0, 0
	if resolve == nil {
		return nil, fmt.Errorf("core: RunShard needs a Resolver to materialize simulator factories")
	}
	if campaign < 0 || campaign >= len(cfg.Campaigns) {
		return nil, fmt.Errorf("core: shard targets campaign %d of %d", campaign, len(cfg.Campaigns))
	}
	n := cfg.MaskCount(campaign)
	if lo < 0 || hi > n || lo >= hi {
		return nil, fmt.Errorf("core: shard window [%d,%d) outside campaign %d's %d masks", lo, hi, campaign, n)
	}
	cache := att.Golden
	if cache == nil {
		cache = NewGoldenCache()
	}
	spec, err := cfg.buildSpec(campaign, resolve, cache, newPlanPool(cfg.Workers))
	if err != nil {
		return nil, err
	}
	if len(spec.Masks) != n {
		return nil, fmt.Errorf("core: campaign %d materialized %d masks, config promises %d", campaign, len(spec.Masks), n)
	}

	// The shard attaches only the tracer: its outcomes go back to the
	// caller as the scheduler built them, and whoever merges the shards
	// commits them.
	att = Attach{Tracer: att.Tracer, TraceParent: att.TraceParent, SpanWorker: att.SpanWorker}
	r, err := runMatrix(cfg, []CampaignSpec{spec}, att, cache, []maskWindow{{lo, hi}})
	if err != nil {
		return nil, err
	}
	return &ShardResult{Golden: r.plan.cells[0].golden, Runs: r.kept[0]}, nil
}
