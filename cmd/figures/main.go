// Command figures regenerates the tables and figures of the paper's
// evaluation (§IV): the classification Figures 2–6, the Table II–IV
// analogs, the §IV.A statistical sampling numbers, and the runtime
// statistics backing Remarks 1–11.
//
// Examples:
//
//	figures -sampling -table 2 -table 3 -table 4
//	figures -fig 3 -n 200 -seed 1
//	figures -all -n 2000 -logs logsrepo      # the paper-scale campaign
//	figures -remarks
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/report"
)

type intList []int

func (l *intList) String() string { return fmt.Sprint(*l) }

func (l *intList) Set(v string) error {
	var n int
	if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
		return err
	}
	*l = append(*l, n)
	return nil
}

func main() {
	var figs, tables intList
	flag.Var(&figs, "fig", "figure to regenerate (2-6); repeatable")
	flag.Var(&tables, "table", "table to print (2, 3 or 4); repeatable")
	all := flag.Bool("all", false, "regenerate all five figures")
	sampling := flag.Bool("sampling", false, "print the statistical sampling numbers (§IV.A)")
	remarks := flag.Bool("remarks", false, "print the runtime statistics backing Remarks 1-11")
	benchCSV := flag.String("benchmarks", "", "comma-separated benchmark subset (default: all ten)")
	toolCSV := flag.String("tools", "", "comma-separated tool subset (default: all three)")
	logsDir := flag.String("logs", "", "persist campaign logs to this repository directory")
	fromLogs := flag.String("from-logs", "", "rebuild figures from stored logs instead of re-running")
	csvDir := flag.String("csv", "", "also write one CSV per figure into this directory")
	summary := flag.Bool("summary", false, "print the §IV.C differential summary across the selected figures")
	groupSim := flag.Bool("group-simcrash", false, "classify simulator crashes as Assert")
	cf := cli.Campaign(flag.CommandLine, 200)
	tf := cli.Telemetry(flag.CommandLine, 5*time.Second)
	flag.Parse()

	obs, err := tf.Start(os.Stderr)
	if err != nil {
		fatal(err)
	}
	defer obs.Close()

	// The shared campaign knobs arrive as one config; the figure specs
	// supply the cells later, so the knob cross-rules (stop margin domain,
	// exhaustive exclusions) are validated against a representative probe
	// cell.
	cfg := cf.Apply([]core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}})
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	opt := report.Options{Campaign: cfg}
	opt.Parser = core.Parser{GroupSimCrashWithAssert: *groupSim}
	opt.Telemetry = obs.Collector
	opt.Tracer = obs.Tracer
	opt.ProgressEvery = tf.ProgressEvery
	if *benchCSV != "" {
		opt.Benchmarks = strings.Split(*benchCSV, ",")
	}
	if *toolCSV != "" {
		opt.Tools = strings.Split(*toolCSV, ",")
	}
	if *logsDir != "" {
		repo, err := core.NewLogsRepo(*logsDir)
		if err != nil {
			fatal(err)
		}
		opt.Logs = repo
	}
	if obs.Trace != nil && opt.Logs == nil {
		fatal(fmt.Errorf("-trace requires -logs (the trace lives in the logs repository)"))
	}
	if obs.Tracer != nil && opt.Logs == nil {
		fatal(fmt.Errorf("-spans requires -logs (the span trace lives in the logs repository)"))
	}
	if cfg.Divergence && opt.Logs == nil {
		fatal(fmt.Errorf("-divergence requires -logs (the divergence files live in the logs repository)"))
	}
	var progress io.Writer = os.Stderr
	if tf.Quiet {
		progress = nil
	}

	if *sampling {
		report.RenderSamplingTable(os.Stdout)
		fmt.Println()
	}
	for _, tb := range tables {
		switch tb {
		case 2:
			report.RenderConfigTable(os.Stdout)
		case 3:
			report.RenderFaultModels(os.Stdout)
		case 4:
			if err := report.RenderStructuresTable(os.Stdout); err != nil {
				fatal(err)
			}
		default:
			fatal(fmt.Errorf("no table %d (have 2, 3, 4)", tb))
		}
		fmt.Println()
	}
	if *remarks {
		stats, err := report.GoldenStats(opt)
		if err != nil {
			fatal(err)
		}
		report.RenderRemarkStats(os.Stdout, stats)
		fmt.Println()
	}

	if *all {
		figs = nil
		for _, f := range report.Figures {
			figs = append(figs, f.ID)
		}
	}
	specs := make([]report.FigureSpec, 0, len(figs))
	for _, id := range figs {
		spec, err := report.FigureByID(id)
		if err != nil {
			fatal(err)
		}
		specs = append(specs, spec)
	}
	var datasets []*report.FigureData
	if *fromLogs != "" {
		repo, err := core.NewLogsRepo(*fromLogs)
		if err != nil {
			fatal(err)
		}
		for _, spec := range specs {
			fd, err := report.LoadFigure(repo, spec, opt)
			if err != nil {
				fatal(err)
			}
			datasets = append(datasets, fd)
		}
	} else if len(specs) > 0 {
		// All requested figures run as one flattened campaign matrix:
		// one shared worker pool, one golden run per {tool, benchmark}.
		var err error
		datasets, err = report.RunFigures(specs, opt, progress)
		if err != nil {
			fatal(err)
		}
		// The cells' logs and divergence files are stored as the matrix
		// ran (report.Options.Logs); the trace and spans cover the whole
		// matrix.
		if opt.Logs != nil {
			if err := opt.Logs.StoreCampaign("matrix", nil, nil, obs.Trace, obs.Spans); err != nil {
				fatal(err)
			}
		}
		if obs.Trace != nil {
			fmt.Fprintf(os.Stderr, "trace: %s (%d records)\n", opt.Logs.TracePath("matrix"), obs.Trace.Len())
		}
		if obs.Spans != nil {
			fmt.Fprintf(os.Stderr, "spans: %s\n", opt.Logs.SpansPath("matrix"))
		}
	}
	if _, err := obs.Finish(tf); err != nil {
		fatal(err)
	}
	for i, fd := range datasets {
		fd.Render(os.Stdout)
		fmt.Println()
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal(err)
			}
			f, err := os.Create(filepath.Join(*csvDir, fmt.Sprintf("fig%d_%s.csv", specs[i].ID, specs[i].Structure)))
			if err != nil {
				fatal(err)
			}
			if err := fd.WriteCSV(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}
	if len(datasets) > 0 {
		// Prints nothing unless some cell ran under adaptive control.
		report.RenderAdaptiveTable(os.Stdout, datasets)
	}
	if *summary && len(datasets) > 0 {
		report.RenderDifferentialSummary(os.Stdout, datasets)
		fmt.Println()
		report.RenderDominantClasses(os.Stdout, datasets)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
