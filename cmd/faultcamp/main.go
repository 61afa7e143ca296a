// Command faultcamp is the injection campaign controller (the second
// module of the injection framework, Fig. 1): it reads fault masks from
// a masks repository (or generates them inline), dispatches every mask
// to a fresh simulator instance through the injector dispatcher, and
// stores the raw run logs in a logs repository for classify to parse.
//
// While a campaign executes, the telemetry layer reports progress
// (runs/s, simulated Mcycles/s, worker utilization, outcome drift) on
// stderr, optionally serves live JSON/Prometheus snapshots plus pprof on
// -metrics-addr, and (-trace) writes a JSONL injection trace next to the
// logs.
//
// Example:
//
//	faultcamp -tool mafin-x86 -bench qsort -structure lsq.data \
//	          -masks masksrepo -logs logsrepo
//	faultcamp -tool gefin-arm -bench sha -structure l1d.data -n 500 -logs logsrepo \
//	          -trace -metrics-addr 127.0.0.1:8321
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
)

func main() {
	tool := flag.String("tool", "gefin-x86", "tool configuration (mafin-x86, gefin-x86, gefin-arm)")
	bench := flag.String("bench", "qsort", "benchmark name")
	structure := flag.String("structure", "rf.int", "target structure")
	masksDir := flag.String("masks", "", "masks repository to read from (empty: generate inline)")
	logsDir := flag.String("logs", "logsrepo", "logs repository directory")
	journalOn := flag.Bool("journal", false, "journal every completed run to <key>.journal.jsonl (fsync'd) so a killed campaign can resume")
	resume := flag.Bool("resume", false, "load completed runs from the journal instead of re-simulating them (implies -journal)")
	cf := cli.Campaign(flag.CommandLine, 200)
	tf := cli.Telemetry(flag.CommandLine, 2*time.Second)
	flag.Parse()

	key := fault.CampaignKey(*tool, *bench, *structure)
	cell := core.CampaignCell{Tool: *tool, Benchmark: *bench, Structure: *structure}
	if *masksDir != "" {
		repo, err := fault.NewRepository(*masksDir)
		if err != nil {
			fatal(err)
		}
		cell.Masks, err = repo.Load(key)
		if err != nil {
			fatal(err)
		}
	}
	cfg, err := cf.Config([]core.CampaignCell{cell})
	if err != nil {
		fatal(err)
	}

	logs, err := core.NewLogsRepo(*logsDir)
	if err != nil {
		fatal(err)
	}
	att := core.Attach{Golden: core.NewGoldenCache(), Resume: *resume}
	if *journalOn || *resume {
		att.Journal, err = fault.OpenJournal(logs.JournalPath(key))
		if err != nil {
			fatal(err)
		}
		defer att.Journal.Close()
	}

	obs, err := tf.Start(os.Stderr)
	if err != nil {
		fatal(err)
	}
	defer obs.Close()
	obs.StartReporter(tf, os.Stderr)
	att.Telemetry = obs.Collector
	if obs.Tracer != nil {
		att.Tracer = obs.Tracer
		att.SpanWorker = "local"
	}

	start := time.Now()
	results, err := core.RunConfig(cfg, cli.Resolve, att)
	obs.StopReporter()
	if err != nil {
		fatal(err)
	}
	res := results[0]
	if err := logs.StoreCampaign(key, []string{key}, results, obs.Trace, obs.Spans); err != nil {
		fatal(err)
	}
	snap, err := obs.Finish(tf)
	if err != nil {
		fatal(err)
	}

	b := core.Parser{}.ParseAll(res.Records)
	fmt.Printf("campaign %s: %d injections in %.1fs\n", key, len(res.Records), time.Since(start).Seconds())
	fmt.Printf("  %s\n", b)
	if b.Weighted() {
		fmt.Printf("  census (cycle mass): Masked=%5.2f%% vuln=%5.2f%% (weight sum %.1f)\n",
			b.WeightedPct(core.ClassMasked), b.WeightedVulnerability(), b.WeightSum)
	}
	if a := res.Adaptive; a != nil {
		switch {
		case a.Complete:
			fmt.Printf("  exhaustive census complete: %d of %d equivalence classes simulated, margin exact\n",
				a.SimulatedRuns, a.PlannedRuns)
		case a.StoppedEarly:
			fmt.Printf("  stopped early: %d of %d runs simulated, margin %.2f%% at %.0f%% confidence\n",
				a.SimulatedRuns, a.PlannedRuns, 100*a.EffectiveMargin, 100*a.Confidence)
		default:
			fmt.Printf("  ran to budget: %d runs, achieved margin %.2f%% at %.0f%% confidence\n",
				a.SimulatedRuns, 100*a.EffectiveMargin, 100*a.Confidence)
		}
	}
	fmt.Printf("  logs stored in %s\n", logs.Dir())
	if obs.Trace != nil {
		fmt.Printf("  trace: %s (%d records)\n", logs.TracePath(key), obs.Trace.Len())
	}
	if res.Divergence != nil {
		fmt.Printf("  divergence: %s (%d records, %d diverged)\n", logs.DivergencePath(key), len(res.Divergence), snap.DivergedRuns)
	}
	if obs.Spans != nil {
		fmt.Printf("  spans: %s\n", logs.SpansPath(key))
	}
	if snap.PrunedDead+snap.PrunedReplicated > 0 {
		fmt.Printf("  pruned: %d dead + %d replicated of %d masks (%.1f%%), %d ladder restores\n",
			snap.PrunedDead, snap.PrunedReplicated, snap.RunsDone, 100*snap.PruneRate, snap.LadderRestores)
	}
	if att.Journal != nil {
		fmt.Printf("  journal: %s (%d runs appended this process", logs.JournalPath(key), att.Journal.Appended())
		if snap.Resumed > 0 {
			fmt.Printf(", %d resumed", snap.Resumed)
		}
		fmt.Printf(")\n")
	}
	if snap.PanicsContained > 0 {
		fmt.Printf("  contained panics: %d\n", snap.PanicsContained)
	}
	fmt.Printf("summary: %s\n", snap.SummaryLine())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultcamp:", err)
	os.Exit(1)
}
