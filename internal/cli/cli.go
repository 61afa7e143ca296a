// Package cli is the shared flag surface of the campaign-running
// commands. faultcamp, figures, and faultcampd all expose the same
// campaign-execution and telemetry knobs; before this package each
// command re-declared its own copies (two dozen flags, drifting
// defaults, triple maintenance). Here they are declared once, bind onto
// core.CampaignConfig — the consolidated campaign API — and each
// command keeps only the flags that are genuinely its own.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/sims"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Resolve is the production Resolver: it materializes the simulator
// factory of a {tool, benchmark} cell through the sims registry and the
// workload table. Every command hands this to core.RunConfig /
// core.RunShard; tests substitute fakes.
func Resolve(tool, benchmark string) (core.Factory, error) {
	w, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	return sims.Factory(tool, w)
}

// CampaignFlags is the core.CampaignConfig the shared campaign-execution
// flags parse straight into; Config() and Apply() hand it out over a
// command's cells.
type CampaignFlags struct{ cfg core.CampaignConfig }

// Campaign registers the shared campaign-execution flags on fs, each
// bound to its CampaignConfig field. defaultN sets the command's default
// injection count (faultcamp and figures historically differ only
// there).
func Campaign(fs *flag.FlagSet, defaultN int) *CampaignFlags {
	f := &CampaignFlags{}
	c := &f.cfg
	fs.IntVar(&c.Injections, "n", defaultN, "injections per campaign when no explicit masks are given")
	fs.Int64Var(&c.Seed, "seed", 1, "mask generation seed")
	fs.StringVar(&c.Model, "model", "transient", "generated fault model (transient, intermittent, permanent)")
	fs.IntVar(&c.Workers, "workers", 0, "worker pool size (default GOMAXPROCS)")
	fs.Uint64Var(&c.TimeoutFactor, "timeout-factor", 3, "cycle limit as a multiple of the fault-free run")
	fs.BoolVar(&c.DisableEarlyStop, "no-early-stop", false, "disable the §III.B early-stop optimizations")
	fs.BoolVar(&c.Prune, "prune", false, "classify provably-masked faults from the golden-run liveness profile without simulating them")
	fs.IntVar(&c.PruneVerify, "prune-verify", 0, "simulate up to this many pruned masks per campaign and fail on a class mismatch (implies -prune)")
	fs.IntVar(&c.CheckpointLadder, "ladder", 0, "checkpoint rungs per row: the entry points unwindowed runs fork from on the way to their first fault, and windowed runs restore (0: the default of 4); outside -detail-window records do not depend on it, under it windows entered at or below a rung open exactly from it")
	fs.DurationVar(&c.RunWallLimit, "run-wall-limit", 0, "per-run wall-clock backstop: classify a run as Timeout after this much host time (0: off)")
	fs.BoolVar(&c.LiveOnly, "live-only", false, "restrict generated faults to entries live at the end of the golden run (conditional vulnerability)")
	fs.BoolVar(&c.DetailWindow, "detail-window", false, "simulate cycle-accurately only inside a detail window around each fault, functionally everywhere else")
	fs.Uint64Var(&c.WindowPre, "window-pre", 2000, "cycle-accurate margin before the earliest fault arms (with -detail-window)")
	fs.Uint64Var(&c.WindowPost, "window-post", 1000, "cycle-accurate margin after the last fault settles (with -detail-window)")
	fs.IntVar(&c.WindowVerify, "window-verify", 0, "re-simulate up to this many windowed masks per campaign fully cycle-accurately and fail on a class mismatch (implies -detail-window)")
	fs.BoolVar(&c.Divergence, "divergence", false, "record per-run divergence provenance (first architectural divergence vs golden, corruption footprint, masking depth) to <key>.divergence.jsonl")
	fs.Float64Var(&c.StopMargin, "stop-margin", 0, "stop a campaign early once every outcome-class proportion is known to this ± margin at -stop-confidence (0: run the full budget)")
	fs.Float64Var(&c.StopConfidence, "stop-confidence", 0.99, "confidence level of the -stop-margin sequential stopping rule")
	fs.IntVar(&c.StopCheckEvery, "stop-check-every", 0, "evaluate the -stop-margin rule every this many completed runs (0: default cadence)")
	fs.BoolVar(&c.Exhaustive, "exhaustive", false, "replace sampling with the equivalence-class-collapsed census of the whole single-bit transient fault population (implies -prune)")
	return f
}

// Config binds the parsed flags onto a validated CampaignConfig over
// the given cells.
func (f *CampaignFlags) Config(cells []core.CampaignCell) (core.CampaignConfig, error) {
	cfg := f.Apply(cells)
	return cfg, cfg.Validate()
}

// Apply binds the parsed flags onto a CampaignConfig without
// validating; for callers (figures) that consume the shared knobs but
// derive their own campaign cells later.
func (f *CampaignFlags) Apply(cells []core.CampaignCell) core.CampaignConfig {
	cfg := f.cfg
	cfg.Campaigns = cells
	// A flag that carries a default binds only when its feature is armed:
	// a windowless config must not grow schema-v2 fields (or trip
	// validation) because of the margin defaults, nor a fixed-budget one
	// schema-v5 fields because of -stop-confidence. An explicit
	// -stop-check-every without a margin stays bound, so Validate rejects
	// it instead of silently dropping the flag.
	if !cfg.DetailWindow && cfg.WindowVerify == 0 {
		cfg.WindowPre, cfg.WindowPost = 0, 0
	}
	if cfg.StopMargin == 0 {
		cfg.StopConfidence = 0
	}
	// Stamp the lowest schema version that can express the config, so
	// configs without the new fields stay readable by legacy builds.
	cfg.SchemaVersion = cfg.WireSchemaVersion()
	return cfg
}

// TelemetryFlags holds the shared observability knobs after parsing.
type TelemetryFlags struct {
	Quiet         bool
	ProgressEvery time.Duration
	MetricsAddr   string
	Trace         bool
	Spans         bool
	SnapshotJSON  string
}

// Telemetry registers the shared observability flags on fs.
func Telemetry(fs *flag.FlagSet, progressDefault time.Duration) *TelemetryFlags {
	t := &TelemetryFlags{}
	fs.BoolVar(&t.Quiet, "quiet", false, "suppress the periodic progress lines (the final summary stays)")
	fs.DurationVar(&t.ProgressEvery, "progress-every", progressDefault, "period of the progress lines")
	fs.StringVar(&t.MetricsAddr, "metrics-addr", "", "serve /metrics, /snapshot.json, /events and /debug/pprof on this address (e.g. 127.0.0.1:8321)")
	fs.BoolVar(&t.Trace, "trace", false, "write a JSONL injection trace into the logs repository")
	fs.BoolVar(&t.Spans, "spans", false, "write a JSONL span trace (campaign/cell/run/phase timings) into the logs repository")
	fs.StringVar(&t.SnapshotJSON, "snapshot-json", "", "write the final telemetry snapshot as JSON to this file")
	return t
}

// Observability bundles the live telemetry stack of one command
// invocation: the collector, the SSE event stream, the optional trace
// sink and span tracer, the optional metrics server and the optional
// progress reporter. Build it with TelemetryFlags.Start, stop the
// reporter before printing the summary, Close everything on the way
// out.
type Observability struct {
	Collector *telemetry.Collector
	// Events is the SSE fan-out, always present (it costs nothing with
	// no subscribers); it is mounted at /events on the metrics server
	// and available for a command's own listener (faultcampd).
	Events *telemetry.EventStream
	Trace  *telemetry.TraceSink
	// Tracer is non-nil when -spans asked for span recording; attach it
	// to the campaign (core.Attach.Tracer or the coordinator options).
	// Spans buffers what it records. Store both buffers with
	// core.LogsRepo.StoreCampaign.
	Tracer   *telemetry.Tracer
	Spans    *telemetry.SpanBuffer
	server   *telemetry.Server
	reporter *telemetry.Reporter
}

// Start builds the telemetry stack the parsed flags ask for. Server
// announcements go to errw.
func (t *TelemetryFlags) Start(errw io.Writer) (*Observability, error) {
	o := &Observability{Collector: telemetry.New()}
	o.Events = telemetry.NewEventStream(o.Collector)
	o.Collector.AddSink(o.Events)
	if t.Spans {
		o.Tracer = telemetry.NewTracer(fmt.Sprintf("t-%d-%d", os.Getpid(), time.Now().Unix()), "c")
		o.Spans = telemetry.NewSpanBuffer()
		o.Tracer.AddSink(o.Spans)
		o.Tracer.AddSink(o.Events)
	}
	if t.MetricsAddr != "" {
		srv, err := telemetry.ServeHandler(t.MetricsAddr, o.Collector.HandlerWithEvents(o.Events))
		if err != nil {
			return nil, err
		}
		o.server = srv
		fmt.Fprintf(errw, "metrics listening on http://%s (/metrics /snapshot.json /events /debug/pprof)\n", srv.Addr())
	}
	if t.Trace {
		o.Trace = telemetry.NewTraceSink()
		o.Collector.AddSink(o.Trace)
	}
	return o, nil
}

// StartReporter starts the periodic progress reporter on w unless the
// flags asked for quiet. Each tick also broadcasts a "progress" frame
// to the SSE subscribers.
func (o *Observability) StartReporter(t *TelemetryFlags, w io.Writer) {
	if !t.Quiet && o.reporter == nil {
		o.reporter = telemetry.StartReporterFunc(w, t.ProgressEvery, func() string {
			snap := o.Collector.Snapshot()
			o.Events.Progress(snap)
			return snap.ProgressLine()
		})
	}
}

// StopReporter stops the progress reporter (idempotent), so the final
// summary isn't interleaved with a late progress line.
func (o *Observability) StopReporter() {
	if o.reporter != nil {
		o.reporter.Stop()
		o.reporter = nil
	}
}

// Close stops the reporter, disconnects the SSE subscribers, and stops
// the metrics server.
func (o *Observability) Close() {
	o.StopReporter()
	o.Events.Close()
	if o.server != nil {
		o.server.Close()
		o.server = nil
	}
}

// Finish stops the reporter, takes the final snapshot, and writes it to
// the -snapshot-json file when one was asked for.
func (o *Observability) Finish(t *TelemetryFlags) (telemetry.Snapshot, error) {
	o.StopReporter()
	snap := o.Collector.Snapshot()
	if t.SnapshotJSON != "" {
		b, err := snap.JSON()
		if err != nil {
			return snap, err
		}
		if err := os.WriteFile(t.SnapshotJSON, append(b, '\n'), 0o644); err != nil {
			return snap, err
		}
	}
	return snap, nil
}
