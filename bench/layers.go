package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/sims"
	"repro/internal/svc/api"
	"repro/internal/telemetry"
)

// layersResult is the traced measurement of one workload: every
// per-layer metric, and the workload's ledger.
type layersResult struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Metrics      map[string]Metric  `json:"metrics"`
	Samples      map[string]Summary `json:"samples"`
	Ledger       []ledgerRow        `json:"ledger"`
	OpsAttempted int                `json:"ops_attempted"`
	OpsFailed    int                `json:"ops_failed"`
	Violations   []string           `json:"violations,omitempty"`
	WallS        float64            `json:"wall_s"`
}

// tracedRun is the state of one traced run.
type tracedRun struct {
	w    workload
	seed int64
	dir  string
	tr   *tracer
	res  *layersResult

	// cache is the one golden cache every probe and replay shares.
	cache *core.GoldenCache
	rungs map[string][]core.LadderRung // qsort ladders by tool
	// unit holds the probes' median unit costs in seconds, keyed for the
	// ledger ("cycle.<tool>", "boot.<tool>", "step.cisc", ...).
	unit map[string]float64
	// digests collects records_sha256 of every execution of the fleet
	// population (worker counts, probe worker, RunWorker fleet): all must
	// agree.
	digests map[string]string
	// fleetCounts and fleetWall describe the campaign fleetAsWorker ran.
	// The tally's classes come from the merged logs: a shard reports
	// replicated rows as stubs the coordinator resolves.
	fleetCounts *tally
	fleetWall   float64
	// localRPS is runs_per_s of the fleet population run in-process.
	localRPS float64
}

func (t *tracedRun) set(name string, v float64, unit string) {
	t.res.Metrics[name] = Metric{Value: v, Unit: unit}
}

// timing records the median of a timed sample as the metric, with the
// extremes and the count beside it.
func (t *tracedRun) timing(name, unit string, xs []float64) {
	t.set(name, medianOf(xs), unit)
	t.res.Samples[name] = summarize(xs)
}

func (t *tracedRun) violate(format string, args ...any) {
	t.res.Violations = append(t.res.Violations, fmt.Sprintf(format, args...))
}

// runTraced is the traced run: (1) the layer probes, (2) one campaign
// of the fleet population at each worker count, traced and through both
// kinds of fleet, for the cross-layer ratios, and (3) the workload's own
// campaign replayed under spans and counted, for its ledger. End-to-end
// metrics are never taken from here.
func runTraced(w workload, seed int64, outDir string, started time.Time) (*layersResult, error) {
	dir, err := os.MkdirTemp(outDir, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := &tracedRun{
		w: w, seed: seed, dir: dir, tr: newTracer(w.name),
		res:   &layersResult{Workload: w.name, Seed: seed, Metrics: map[string]Metric{}, Samples: map[string]Summary{}},
		cache: core.NewGoldenCache(), rungs: map[string][]core.LadderRung{},
		unit: map[string]float64{}, digests: map[string]string{},
	}

	t.probeBitarray()
	t.probeCache()
	imgs, err := t.probeWorkload()
	if err != nil {
		return nil, err
	}
	fw, err := workloadByName("fleet-service")
	if err != nil {
		return nil, err
	}
	var fleetCfg core.CampaignConfig
	steps := []func() error{
		t.probeSims,
		func() error { return t.probeInterp(imgs) },
		t.buildCache,
		func() error { return t.probeHandoff(imgs) },
		t.probeFault,
		t.probeTelemetry,
		t.probeCore,
		t.probePrune,
		func() (err error) {
			fleetCfg, err = fw.population(seed, t.cache)
			fleetCfg.Workers = 1
			return err
		},
		func() error { return t.probeShards(fleetCfg) },
		func() error { return t.probeDistPlan(fleetCfg) },
		func() error { return t.probeSpool(fleetCfg) },
		func() error { return t.scaling(fleetCfg) },
		func() error { return t.fleetAsWorker(fleetCfg) },
		func() error { return t.fleetOfWorkers(fleetCfg) },
		t.replay,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
	}
	var first string
	for _, name := range sortedKeys(t.digests) {
		if first == "" {
			first = name
		} else if t.digests[name] != t.digests[first] {
			t.violate("records_sha256 of %s (%s) differs from %s (%s)", name, t.digests[name], first, t.digests[first])
		}
	}
	if len(t.res.Violations) > 0 {
		t.res.OpsFailed = t.res.OpsAttempted
	}
	for _, m := range perLayer {
		if _, ok := t.res.Metrics[m.Name]; !ok {
			return nil, fmt.Errorf("%s: traced run produced no %s", w.name, m.Name)
		}
	}
	if err := writeSpans(filepath.Join(outDir, w.name+".spans.jsonl"), t.tr.all()); err != nil {
		return nil, err
	}
	t.res.WallS = time.Since(started).Seconds()
	return t.res, nil
}

// fleetProbeSpan names the root span of fleetAsWorker's campaign; the
// fleet-service ledger is built from the spans under it.
const fleetProbeSpan = "campaign, benchmark as worker"

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// tally counts, at the run-event boundary, the work a campaign did in
// each layer. It is fed by a telemetry sink (in-process campaigns) or
// from the shard results (fleet campaigns).
type tally struct {
	mu        sync.Mutex
	masks     int
	simulated int
	pruned    int
	simCycles uint64
	classes   map[string]int
	tools     map[string]*toolTally
}

type toolTally struct {
	simulated    int
	restores     int
	detailCycles uint64
	fastSteps    uint64
	entries      int
	exits        int
}

func newTally() *tally { return &tally{classes: map[string]int{}, tools: map[string]*toolTally{}} }

// RunEvent implements telemetry.Sink.
func (c *tally) RunEvent(ev telemetry.RunEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.masks++
	c.classes[strings.ToLower(ev.Class)]++
	if ev.Pruned != "" {
		c.pruned++
		return
	}
	c.simulated++
	c.simCycles += ev.Cycles
	tt := c.tools[ev.Tool]
	if tt == nil {
		tt = &toolTally{}
		c.tools[ev.Tool] = tt
	}
	tt.simulated++
	// Cycles the detailed core actually simulated: the window for a
	// windowed run, everything after the restore point otherwise.
	switch {
	case ev.Windowed:
		tt.detailCycles += ev.DetailCycles
	case ev.LadderRestored && ev.Cycles > ev.RungCycle:
		tt.detailCycles += ev.Cycles - ev.RungCycle
	default:
		tt.detailCycles += ev.Cycles
	}
	if ev.LadderRestored {
		tt.restores++
	}
	tt.fastSteps += ev.FastSteps
	if ev.WindowEntered {
		tt.entries++
	}
	if ev.WindowExited {
		tt.exits++
	}
}

// addShard folds one shard's runs in, through the same accounting.
func (c *tally) addShard(tool string, res *core.ShardResult) {
	for _, r := range res.Runs {
		c.RunEvent(telemetry.RunEvent{
			Tool: tool, Pruned: r.Pruned, Cycles: r.Record.Cycles,
			LadderRestored: r.LadderRestored, RungCycle: r.RungCycle,
			Windowed: r.Windowed, WindowEntered: r.WindowEntered, WindowExited: r.WindowExited,
			FastSteps: r.FastSteps, DetailCycles: r.DetailCycles,
		})
	}
}

// localRep runs cfg once through a localSystem on the shared cache and
// returns the wall time and the records' digest.
func (t *tracedRun) localRep(w workload, cfg core.CampaignConfig, workers int, tr *tracer, c telemetry.Sink) (float64, string, error) {
	sys := &localSystem{cache: t.cache, workers: workers, sinks: w.sinks, dir: t.dir, tr: tr, tally: c}
	t0 := time.Now()
	out, err := sys.campaign(cfg)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return 0, "", err
	}
	t.res.OpsAttempted += maskCount(cfg)
	sum, err := digestRecords(out.records)
	return wall, sum, err
}

// scaling runs the fleet population in-process: at Workers = nproc and
// Workers = 1 (the scheduler's scaling, and the worker-count
// byte-identity check), and once more traced (the tracing overhead).
func (t *tracedRun) scaling(cfg core.CampaignConfig) error {
	sp := t.tr.begin("core", "scaling pair")
	defer sp.end()
	w, err := workloadByName("windowed-turbo")
	if err != nil {
		return err
	}
	nproc := runtime.GOMAXPROCS(0)
	if _, _, err := t.localRep(w, cfg, nproc, nil, nil); err != nil { // warm-up: ff-rungs, decode cache
		return err
	}
	// Alternate the three kinds so that a slow stretch of the host hits
	// all of them alike.
	var wallN, wall1, traced []float64
	for i := 0; i < 2; i++ {
		wall, sum, err := t.localRep(w, cfg, nproc, nil, nil)
		if err != nil {
			return err
		}
		wallN = append(wallN, wall)
		t.digests[fmt.Sprintf("RunConfig workers=%d", nproc)] = sum
		if wall, sum, err = t.localRep(w, cfg, 1, nil, nil); err != nil {
			return err
		}
		wall1 = append(wall1, wall)
		t.digests["RunConfig workers=1"] = sum
		if wall, _, err = t.localRep(w, cfg, nproc, t.tr, newTally()); err != nil {
			return err
		}
		traced = append(traced, wall)
	}
	t.set("core.sched_scale_2w", medianOf(wall1)/medianOf(wallN), "x")
	t.set("bench.trace_overhead_frac", medianOf(traced)/medianOf(wallN)-1, "ratio")
	t.localRPS = float64(maskCount(cfg)) / medianOf(wallN)
	return nil
}

// fleetAsWorker runs one campaign through the embedded service with the
// benchmark itself as the only worker, on the shared warm cache, so
// that lease, RunShard and complete are each timed from outside; then
// it times the read-side API on the finished campaign.
func (t *tracedRun) fleetAsWorker(cfg core.CampaignConfig) error {
	f, err := startFleet(filepath.Join(t.dir, "probe-fleet"), 0)
	if err != nil {
		return err
	}
	defer f.close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	root := t.tr.begin("svc", fleetProbeSpan)
	began := time.Now()

	sp := t.tr.begin("svc", "submit")
	t0 := time.Now()
	st, err := f.submit(ctx, cfg)
	submitted := time.Now()
	sp.end()
	if err != nil {
		return err
	}
	submits := []float64{submitted.Sub(t0).Seconds()}

	var (
		lease, complete, shard []float64
		first                  = true
		counts                 = newTally()
		served                 api.ConfigResponse
		lastAck                time.Time
	)
	for done := false; !done; {
		sp := t.tr.begin("dist", "lease")
		l0 := time.Now()
		resp, err := f.cl.Lease(ctx, "bench")
		l1 := time.Now()
		sp.end()
		if err != nil {
			return err
		}
		switch resp.Status {
		case api.StatusWait:
			time.Sleep(time.Millisecond)
			continue
		case api.StatusShard:
		default:
			return fmt.Errorf("lease answered %q: %s", resp.Status, resp.Error)
		}
		if first {
			first = false
			t.set("svc.queue_wait_ms", 1e3*l1.Sub(submitted).Seconds(), "ms")
			if served, err = f.cl.CampaignConfig(ctx, resp.CampaignID); err != nil {
				return err
			}
		}
		sh := *resp.Shard
		sp = t.tr.begin("core", "RunShard")
		res, err := core.RunShard(served.Config, sh.Campaign, sh.MaskLo, sh.MaskHi, cli.Resolve, core.Attach{Golden: t.cache})
		sp.endCount(int64(sh.MaskHi - sh.MaskLo))
		if err != nil {
			return err
		}
		counts.addShard(cfg.Campaigns[sh.Campaign].Tool, res)
		sp = t.tr.begin("dist", "complete")
		c0 := time.Now()
		ack, err := f.cl.Complete(ctx, api.CompleteRequest{WorkerID: "bench", ShardID: sh.ID, CampaignID: resp.CampaignID, Result: res})
		lastAck = time.Now()
		sp.end()
		if err != nil {
			return err
		}
		if ack.Error != "" || !ack.Accepted {
			return fmt.Errorf("completing shard %d: accepted=%v %s", sh.ID, ack.Accepted, ack.Error)
		}
		lease = append(lease, l1.Sub(l0).Seconds())
		complete = append(complete, lastAck.Sub(c0).Seconds())
		shard = append(shard, lastAck.Sub(l0).Seconds())
		done = ack.Done
	}
	sp = t.tr.begin("svc", "finalize")
	for {
		s, err := f.cl.Get(ctx, st.ID)
		if err != nil {
			return err
		}
		if api.TerminalState(s.State) {
			if s.State != api.StateDone {
				return fmt.Errorf("campaign %s ended %s: %s", st.ID, s.State, s.Error)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	t.set("svc.finalize_ms", 1e3*time.Since(lastAck).Seconds(), "ms")
	sp.end()
	root.endCount(int64(len(shard)))
	t.fleetCounts, t.fleetWall = counts, time.Since(began).Seconds()
	t.res.OpsAttempted += maskCount(cfg)

	t.timing("dist.complete_rtt_ms_p50", "ms", scale(complete, 1e3))
	// A mean, like worker_shard_ms: shards differ in how much they
	// simulate, and the two are compared shard for shard.
	t.set("dist.probe_shard_ms", 1e3*sum(shard)/float64(len(shard)), "ms")
	t.res.Samples["dist.probe_shard_ms"] = summarize(scale(shard, 1e3))

	// The finished campaign's records, for the identity check.
	out, err := f.records(st.ID, cfg)
	if err != nil {
		return err
	}
	if t.digests["fleet, benchmark as worker"], err = digestRecords(out); err != nil {
		return err
	}
	counts.classes = classCounts(out)

	// Read side, on the idle service.
	sp = t.tr.begin("svc", "read-side probes")
	defer sp.end()
	var apiErr error
	gets := timeN(nFast, func() {
		if _, err := f.cl.Get(ctx, st.ID); err != nil {
			apiErr = err
		}
	})
	results := timeN(nFast, func() {
		if _, err := f.cl.Results(ctx, st.ID); err != nil {
			apiErr = err
		}
	})
	idle := timeN(nFast, func() {
		if _, err := f.cl.Lease(ctx, "bench"); err != nil {
			apiErr = err
		}
	})
	// Submit is timed on campaigns that are cancelled at once: no
	// worker is attached, so none of them runs.
	for i := 0; i < nSlow-1; i++ {
		t0 := time.Now()
		s, err := f.submit(ctx, cfg)
		submits = append(submits, time.Since(t0).Seconds())
		if err == nil {
			_, err = f.cl.Cancel(ctx, s.ID)
		}
		if err != nil {
			apiErr = err
		}
	}
	if apiErr != nil {
		return apiErr
	}
	t.timing("svc.get_us_p50", "us", scale(gets, 1e6))
	t.timing("svc.results_us_p50", "us", scale(results, 1e6))
	if p95, ok := percentile(results, 95); ok {
		t.set("svc.results_us_p95", 1e6*p95, "us")
	}
	t.timing("dist.lease_rtt_us_p50", "us", scale(append(idle, lease...), 1e6))
	t.timing("svc.submit_ms_p50", "ms", scale(submits, 1e3))
	return nil
}

// fleetOfWorkers runs one campaign through a second embedded service
// with nproc dist.RunWorkers — the fleet-service workload's path — and
// derives the per-shard worker cost and the wrappers' overhead against
// the same campaign run in-process.
func (t *tracedRun) fleetOfWorkers(cfg core.CampaignConfig) error {
	nproc := runtime.GOMAXPROCS(0)
	f, err := startFleet(filepath.Join(t.dir, "worker-fleet"), nproc)
	if err != nil {
		return err
	}
	f.tr = t.tr
	t0 := time.Now()
	out, err := f.campaign(cfg)
	wall := time.Since(t0).Seconds()
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	t.res.OpsAttempted += maskCount(cfg)
	if t.digests["fleet of RunWorkers"], err = digestRecords(out.records); err != nil {
		return err
	}
	shards := 0
	for i := range cfg.Campaigns {
		shards += (cfg.MaskCount(i) + shardSize - 1) / shardSize
	}
	t.set("dist.worker_shard_ms", 1e3*wall*float64(nproc)/float64(shards), "ms")
	t.set("svc.fleet_overhead_x", t.localRPS/(float64(maskCount(cfg))/wall), "x")
	return nil
}

// replay runs the workload's own campaign once under spans, with the
// tally attached, and builds its ledger. For fleet-service the campaign
// is the one fleetAsWorker already ran.
func (t *tracedRun) replay() error {
	var (
		counts  *tally
		wall    float64
		workers = runtime.GOMAXPROCS(0)
		cfg     core.CampaignConfig
		err     error
	)
	root := t.tr.begin("bench", "replay "+t.w.name)
	if t.w.fleet {
		counts, wall, workers = t.fleetCounts, t.fleetWall, 1
		cfg, err = t.w.population(t.seed, t.cache)
	} else {
		sp := t.tr.begin("core", "BuildSpecs")
		cfg, err = t.w.population(t.seed, t.cache)
		sp.endCount(int64(maskCount(cfg)))
		if err == nil {
			_, _, err = t.localRep(t.w, t.w.warmUp(cfg), workers, nil, nil) // warm-up, as in set-up
		}
		if err == nil {
			counts = newTally()
			wall, _, err = t.localRep(t.w, cfg, workers, t.tr, counts)
		}
	}
	root.end()
	if err != nil {
		return err
	}
	if counts.masks != maskCount(cfg) {
		t.violate("replay counted %d run events for %d masks", counts.masks, maskCount(cfg))
	}
	t.set("core.masks", float64(counts.masks), "count")
	t.set("core.simulated", float64(counts.simulated), "count")
	t.set("core.pruned", float64(counts.pruned), "count")
	t.set("core.sim_cycles", float64(counts.simCycles), "count")
	t.set("prune.rate", float64(counts.pruned)/float64(counts.masks), "ratio")
	for _, cls := range core.ClassStrings() {
		t.set("core.class_"+strings.ToLower(cls), float64(counts.classes[strings.ToLower(cls)]), "count")
	}
	t.res.Ledger = t.ledger(counts, wall, workers)
	return nil
}

// isaOf is the functional-tier image a tool's runs fast-forward on.
func isaOf(tool string) string {
	if tool == sims.GeFINARM {
		return "risc"
	}
	return "cisc"
}

func layerOf(tool string) string {
	if tool == sims.MaFINX86 {
		return "marss"
	}
	return "gem5"
}
