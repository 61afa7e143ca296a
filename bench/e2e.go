package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// setupRuns is how many times one run sets the system up; setup_s is
// the median. The set-ups are spread over the run, each followed by its
// share of the timed repetitions, so that one slow stretch of the host
// (they last 10–30 s) cannot cover all of them.
const setupRuns = 3

// repOutput is what one campaign repetition hands back for checking.
type repOutput struct {
	records  map[string][]core.LogRecord // by campaign key
	apiCalls int                         // fleet only
}

// system is one set-up instance of the stack a workload drives: a warm
// golden cache for the in-process workloads, an embedded service with
// its worker fleet for fleet-service.
type system interface {
	// campaign runs cfg once, start to durable artifacts.
	campaign(cfg core.CampaignConfig) (repOutput, error)
	close() error
}

// localSystem runs campaigns through core.RunConfig on a shared golden
// cache, the way cmd/faultcamp does.
type localSystem struct {
	cache   *core.GoldenCache
	workers int
	sinks   bool
	dir     string // scratch root for per-repetition artifact dirs
	seq     int
	// tally, when non-nil, receives every campaign's run events (the
	// traced run reads exact counts from it).
	tally telemetry.Sink
	tr    *tracer
}

func (s *localSystem) close() error { return nil }

func (s *localSystem) campaign(cfg core.CampaignConfig) (repOutput, error) {
	cfg.Workers = s.workers
	att := core.Attach{Golden: s.cache}
	if s.tally != nil {
		att.Telemetry = telemetry.New()
		att.Telemetry.AddSink(s.tally)
	}
	var (
		logs  *core.LogsRepo
		trace *telemetry.TraceSink
		err   error
	)
	if s.sinks {
		s.seq++
		dir := filepath.Join(s.dir, "rep"+strconv.Itoa(s.seq))
		defer os.RemoveAll(dir)
		sp := s.tr.begin("core", "logs.open")
		logs, err = core.NewLogsRepo(dir)
		if err == nil {
			att.Journal, err = fault.OpenJournal(logs.JournalPath("matrix"))
		}
		sp.end()
		if err != nil {
			return repOutput{}, err
		}
		if att.Telemetry == nil {
			att.Telemetry = telemetry.New()
		}
		trace = telemetry.NewTraceSink()
		att.Telemetry.AddSink(trace)
	}
	sp := s.tr.begin("core", "RunConfig")
	results, err := core.RunConfig(cfg, cli.Resolve, att)
	sp.end()
	if err != nil {
		if att.Journal != nil {
			att.Journal.Close()
		}
		return repOutput{}, err
	}
	out := repOutput{records: make(map[string][]core.LogRecord, len(results))}
	keys := cfg.Keys()
	for i, res := range results {
		out.records[keys[i]] = res.Records
	}
	if s.sinks {
		sp := s.tr.begin("core", "logs.store")
		for i, res := range results {
			if err := logs.Store(keys[i], res); err != nil {
				sp.end()
				return repOutput{}, err
			}
		}
		sp.end()
		sp = s.tr.begin("fault", "journal.close")
		err := att.Journal.Close()
		sp.end()
		if err != nil {
			return repOutput{}, err
		}
		sp = s.tr.begin("telemetry", "trace.flush")
		err = flushTrace(logs, trace)
		sp.end()
		if err != nil {
			return repOutput{}, err
		}
	}
	return out, nil
}

func flushTrace(logs *core.LogsRepo, trace *telemetry.TraceSink) error {
	f, err := logs.CreateTrace("matrix")
	if err != nil {
		return err
	}
	if err := trace.Flush(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setUp builds one system for the workload and runs its warm-up
// campaign: image assembly, factory resolve, golden/ladder/profile
// builds, mask generation, and for the fleet spool/index/journal open,
// service and worker start — then one cold campaign over a quarter of
// the masks, which fills the lazily built parts (fast-forward rungs,
// decode cache, boot pool).
func setUp(w workload, seed int64, dir string) (system, core.CampaignConfig, error) {
	var (
		sys   system
		cache = core.NewGoldenCache()
	)
	cfg, err := w.population(seed, cache)
	if err != nil {
		return nil, cfg, err
	}
	if w.fleet {
		cfg.Workers = 1
		f, err := startFleet(dir, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, cfg, err
		}
		sys = f
	} else {
		sys = &localSystem{cache: cache, workers: runtime.GOMAXPROCS(0), sinks: w.sinks, dir: dir}
	}
	if _, err := sys.campaign(w.warmUp(cfg)); err != nil {
		sys.close()
		return nil, cfg, fmt.Errorf("warm-up campaign: %w", err)
	}
	return sys, cfg, nil
}

// e2eResult is the untraced measurement of one workload.
type e2eResult struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Masks         int                `json:"masks"`
	Reps          int                `json:"reps"`
	Metrics       map[string]Metric  `json:"metrics"`
	Summaries     map[string]Summary `json:"summaries"`
	OpsAttempted  int                `json:"ops_attempted"`
	OpsFailed     int                `json:"ops_failed"`
	RecordsSHA256 string             `json:"records_sha256"`
	ClassCounts   map[string]int     `json:"class_counts"`
	RepSpreadFrac float64            `json:"rep_spread_frac"`
	RepWallS      []float64          `json:"rep_wall_s"`
	RepCPUS       []float64          `json:"rep_cpu_s"`
	SetupRunsS    []float64          `json:"setup_runs_s"`
	WallS         float64            `json:"wall_s"`
	Violations    []string           `json:"violations,omitempty"`
}

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runE2E measures one workload with tracing off: setupRuns times over,
// a set-up followed by identical timed repetitions of the campaign
// until they add up to that set-up's share of the given seconds; then
// the output checks.
func runE2E(w workload, seed int64, seconds float64, outDir string, started time.Time) (*e2eResult, error) {
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &e2eResult{Workload: w.name, Seed: seed, Metrics: map[string]Metric{}, Summaries: map[string]Summary{}}
	var (
		walls, cpus, setupS []float64 // seconds
		last                repOutput
		setupBeg            = started // the first set-up counts from process start
	)
	for i := 1; i <= setupRuns; i++ {
		sys, cfg, err := setUp(w, seed, filepath.Join(dir, "setup"+strconv.Itoa(i)))
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(setupBeg).Seconds())
		res.Masks = maskCount(cfg)

		for n := len(walls); len(walls) == n || sum(walls) < seconds*float64(i)/setupRuns; {
			cpu0 := cpuSeconds()
			t0 := time.Now()
			out, err := sys.campaign(cfg)
			wall := time.Since(t0).Seconds()
			cpu := cpuSeconds() - cpu0
			if err != nil {
				sys.close()
				return nil, fmt.Errorf("%s: repetition %d: %w", w.name, len(walls), err)
			}
			walls, cpus = append(walls, wall), append(cpus, cpu)
			res.OpsAttempted += res.Masks + out.apiCalls
			if v := checkRep(cfg, out, res); v != "" {
				res.Violations = append(res.Violations, fmt.Sprintf("repetition %d: %s", len(walls)-1, v))
				res.OpsFailed += res.Masks
			}
			last = out
		}

		if f, ok := sys.(*fleet); ok && i == setupRuns {
			v, err := f.checkAgainstSingleNode(cfg)
			if err != nil {
				sys.close()
				return nil, err
			}
			if v != "" {
				res.Violations = append(res.Violations, v)
				res.OpsFailed += res.Masks
			}
		}
		if err := sys.close(); err != nil {
			return nil, err
		}
		runtime.GC() // an earlier set-up's system must not inflate peak_rss_mb
		setupBeg = time.Now()
	}
	res.Reps, res.RepWallS, res.RepCPUS, res.SetupRunsS = len(walls), walls, cpus, setupS
	res.ClassCounts = classCounts(last.records)

	var rps, cpuMS []float64
	for i := range walls {
		rps = append(rps, float64(res.Masks)/walls[i])
		cpuMS = append(cpuMS, 1000*cpus[i]/float64(res.Masks))
	}
	res.RepSpreadFrac = spreadFrac(walls)
	res.Summaries["runs_per_s"] = summarize(rps)
	res.Summaries["cpu_ms_per_run"] = summarize(cpuMS)
	res.Summaries["setup_s"] = summarize(setupS)
	res.Summaries["rep_wall_s"] = summarize(walls)
	// The time metrics are those of the run's fastest repetition, not of
	// the median one. The repetitions are identical and deterministic, so
	// they differ only by what the host added, and the host only ever
	// adds: a neighbour on the shared machine makes the same code 30–50%
	// slower for seconds or minutes at a time. In each of five sets of
	// ten runs the fastest repetition of detailed-diff spread about half
	// as much between runs as its median repetition; on the other
	// workloads the two were alike (README, "The bounds, and the evidence
	// for them"). The medians are printed and stored beside them.
	res.Metrics["runs_per_s"] = Metric{res.Summaries["runs_per_s"].Max, "1/s"}
	res.Metrics["cpu_ms_per_run"] = Metric{res.Summaries["cpu_ms_per_run"].Min, "ms"}
	res.Metrics["setup_s"] = Metric{medianOf(setupS), "s"}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.Metrics["peak_rss_mb"] = Metric{rss, "MB"}
	res.WallS = time.Since(started).Seconds()
	return res, nil
}

// checkRep is the per-repetition output check: every configured mask
// has exactly one record, every record classifies, and the digest of
// the records equals that of the repetitions before it. It returns the
// first violation, or "".
func checkRep(cfg core.CampaignConfig, out repOutput, res *e2eResult) string {
	keys := cfg.Keys()
	for i, key := range keys {
		recs, ok := out.records[key]
		if !ok {
			return fmt.Sprintf("cell %s: no records", key)
		}
		if want := cfg.MaskCount(i); len(recs) != want {
			return fmt.Sprintf("cell %s: %d records for %d masks", key, len(recs), want)
		}
		seen := make([]bool, len(recs))
		for _, r := range recs {
			if r.MaskID < 0 || r.MaskID >= len(seen) || seen[r.MaskID] {
				return fmt.Sprintf("cell %s: mask %d missing or recorded twice", key, r.MaskID)
			}
			seen[r.MaskID] = true
		}
	}
	if len(out.records) != len(keys) {
		return fmt.Sprintf("%d cells in the result for %d configured", len(out.records), len(keys))
	}
	total := 0
	for _, n := range classCounts(out.records) {
		total += n
	}
	if want := maskCount(cfg); total != want {
		return fmt.Sprintf("class counts sum to %d for %d masks", total, want)
	}
	sum, err := digestRecords(out.records)
	if err != nil {
		return err.Error()
	}
	if res.RecordsSHA256 == "" {
		res.RecordsSHA256 = sum
	} else if sum != res.RecordsSHA256 {
		return fmt.Sprintf("records_sha256 %s differs from the first repetition's %s", sum, res.RecordsSHA256)
	}
	return ""
}

// classCounts classifies every record with the default parser.
func classCounts(byKey map[string][]core.LogRecord) map[string]int {
	counts := make(map[string]int)
	for _, recs := range byKey {
		b := core.Parser{}.ParseAll(recs)
		for cls, n := range b.Counts {
			counts[strings.ToLower(string(cls))] += n
		}
	}
	return counts
}

// firstDiff names the first line at which two log files differ.
func firstDiff(key string, got, want []byte) string {
	g, w := bytes.Split(got, []byte{'\n'}), bytes.Split(want, []byte{'\n'})
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("%s line %d: got %.120s want %.120s", key, i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%s: %d lines, want %d", key, len(g), len(w))
}

// cpuSeconds is the process CPU time (user+system) so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
