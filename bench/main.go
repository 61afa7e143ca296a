// Command bench is the repository's benchmark: four campaign workloads,
// four end-to-end metrics measured with tracing off, and a per-layer
// ledger measured by a separate traced run. Everything is timed from
// outside, through the exported functions of the packages under
// internal/; see README.md for the tables.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one workload (the BENCHMARK.json contract)
//	bench [-workloads a,b] [-trace]                    every workload, one child process each
//	bench -selfcheck                                   the untraced pass twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	started := time.Now()
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workloadName := fs.String("workload", "", "run this one workload in this process and print the result line")
	list := fs.String("workloads", "", "comma-separated workloads for the all-workloads mode (default: all four)")
	seed := fs.Int64("seed", 7, "handed to the program as CampaignConfig.Seed; the masks are explicit and do not depend on it")
	seconds := fs.Float64("seconds", 20, "timed repetitions add up to at least this long")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and ledger instead of end-to-end metrics")
	selfcheck := fs.Bool("selfcheck", false, "run the untraced pass twice and fail if two medians differ by more than the metric's bound")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for result files and scratch data")
	fs.Parse(joinTraceValue(os.Args[1:]))
	if fs.NArg() > 0 {
		fatalf("unexpected argument %q", fs.Arg(0))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	switch {
	case *workloadName != "":
		w, err := workloadByName(*workloadName)
		if err != nil {
			fatalf("%v", err)
		}
		os.Exit(runOne(w, *seed, *seconds, *trace, *outDir, started))
	case *selfcheck:
		os.Exit(runSelfcheck(names(*list), *seed, *seconds, *outDir))
	default:
		_, code := runAll(names(*list), *seed, *seconds, *trace, *outDir)
		os.Exit(code)
	}
}

// joinTraceValue lets "-trace 0" and "-trace 1" (the driver's spelling)
// through Go's flag package, whose boolean flags take a value only as
// "-trace=0".
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func names(list string) []string {
	if list == "" {
		var all []string
		for _, w := range workloads {
			all = append(all, w.name)
		}
		return all
	}
	ns := strings.Split(list, ",")
	for _, n := range ns {
		if _, err := workloadByName(n); err != nil {
			fatalf("%v", err)
		}
	}
	return ns
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// resultLine is the last line of standard output of a one-workload run.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// runOne runs one workload in this process, prints every metric by name
// and unit, writes the detailed result file, and ends with the result
// line. The exit code is non-zero when an output check failed.
func runOne(w workload, seed int64, seconds float64, traced bool, outDir string, started time.Time) int {
	var (
		line       resultLine
		violations []string
		detail     any
		file       string
	)
	if traced {
		res, err := runTraced(w, seed, outDir, started)
		if err != nil {
			fatalf("%v", err)
		}
		printLayers(res)
		line = resultLine{Attempted: res.OpsAttempted, Failed: res.OpsFailed, Metrics: res.Metrics}
		violations, detail, file = res.Violations, res, w.name+".layers.json"
	} else {
		res, err := runE2E(w, seed, seconds, outDir, started)
		if err != nil {
			fatalf("%v", err)
		}
		printE2E(res)
		line = resultLine{Attempted: res.OpsAttempted, Failed: res.OpsFailed, Metrics: res.Metrics}
		violations, detail, file = res.Violations, res, w.name+".e2e.json"
	}
	for _, v := range violations {
		fmt.Printf("VIOLATION %s: %s\n", w.name, v)
	}
	line.Correct = len(violations) == 0
	if err := writeJSON(filepath.Join(outDir, file), struct {
		Env    Env `json:"env"`
		Result any `json:"result"`
	}{environment(seed), detail}); err != nil {
		fatalf("%v", err)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

func printE2E(r *e2eResult) {
	fmt.Printf("workload %s  seed %d  masks %d  timed repetitions %d  wall %.1fs\n", r.Workload, r.Seed, r.Masks, r.Reps, r.WallS)
	for _, m := range endToEnd {
		s, ok := r.Summaries[m.Name]
		if !ok {
			fmt.Printf("  %-16s %12.4f %-5s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
			continue
		}
		fmt.Printf("  %-16s %12.4f %-5s of %d  [median %.4f  min %.4f  max %.4f]\n", m.Name, r.Metrics[m.Name].Value, m.Unit, s.N, s.Median, s.Min, s.Max)
	}
	fmt.Printf("  ops_attempted %d  ops_failed %d  rep_spread_frac %.4f\n", r.OpsAttempted, r.OpsFailed, r.RepSpreadFrac)
	fmt.Printf("  records_sha256 %s\n", r.RecordsSHA256)
	fmt.Printf("  classes %s\n", formatCounts(r.ClassCounts))
}

func formatCounts(m map[string]int) string {
	var parts []string
	for _, k := range sortedKeys(m) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// passResult is one all-workloads pass: what BENCH_e2e.json and
// BENCH_layers.json hold.
type passResult struct {
	Env       Env                        `json:"env"`
	Traced    bool                       `json:"traced"`
	Seconds   float64                    `json:"seconds_per_workload"`
	Workloads map[string]json.RawMessage `json:"workloads"`
	WallS     map[string]float64         `json:"wall_s"`
}

// runAll runs each workload in a child process of its own, so that
// peak_rss_mb and cpu_ms_per_run are per workload, and merges the
// children's result files into one.
func runAll(ws []string, seed int64, seconds float64, traced bool, outDir string) (*passResult, int) {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	pass := &passResult{Env: environment(seed), Traced: traced, Seconds: seconds,
		Workloads: map[string]json.RawMessage{}, WallS: map[string]float64{}}
	code := 0
	suffix, merged := ".e2e.json", "BENCH_e2e.json"
	traceArg := "-trace=0"
	if traced {
		suffix, merged, traceArg = ".layers.json", "BENCH_layers.json", "-trace=1"
	}
	for _, name := range ws {
		t0 := time.Now()
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), traceArg, "-out", outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", name, err)
			code = 1
		}
		pass.WallS[name] = time.Since(t0).Seconds()
		b, err := os.ReadFile(filepath.Join(outDir, name+suffix))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s left no result: %v\n", name, err)
			code = 1
			continue
		}
		var child struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(b, &child); err != nil {
			fatalf("%s: %v", name+suffix, err)
		}
		pass.Workloads[name] = child.Result
	}
	if err := writeJSON(filepath.Join(outDir, merged), pass); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("wrote %s\n", filepath.Join(outDir, merged))
	return pass, code
}

// runSelfcheck runs the untraced pass twice back to back and fails when
// any end-to-end metric's second median is worse than the first by more
// than the metric's bound, or when an exact output (digest, class
// counts) differs between the two.
func runSelfcheck(ws []string, seed int64, seconds float64, outDir string) int {
	var passes [2]*passResult
	for i := range passes {
		fmt.Printf("== selfcheck pass %d ==\n", i+1)
		p, code := runAll(ws, seed, seconds, false, outDir)
		if code != 0 {
			return code
		}
		passes[i] = p
	}
	fail := 0
	fmt.Printf("== selfcheck: second pass against first ==\n")
	for _, name := range ws {
		var a, b e2eResult
		if err := json.Unmarshal(passes[0].Workloads[name], &a); err != nil {
			fatalf("%v", err)
		}
		if err := json.Unmarshal(passes[1].Workloads[name], &b); err != nil {
			fatalf("%v", err)
		}
		for _, m := range endToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			verdict := "ok"
			if !withinBound(va, vb, m.Better, m.Bound) {
				verdict = "FAIL"
				fail++
			}
			fmt.Printf("  %-15s %-15s %12.4f %12.4f %-4s worse by %+6.2f%% (bound %.0f%%) %s\n",
				name, m.Name, va, vb, m.Unit, 100*worseBy(va, vb, m.Better), 100*m.Bound, verdict)
		}
		if a.RecordsSHA256 != b.RecordsSHA256 || formatCounts(a.ClassCounts) != formatCounts(b.ClassCounts) {
			fmt.Printf("  %-15s exact outputs differ: %s / %s\n", name, a.RecordsSHA256, b.RecordsSHA256)
			fail++
		}
	}
	if fail > 0 {
		fmt.Printf("selfcheck: %d failures\n", fail)
		return 1
	}
	fmt.Println("selfcheck: passed")
	return 0
}
