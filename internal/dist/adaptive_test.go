package dist_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// adaptiveConfig is the early-stopping matrix of the distributed
// differential: the 25pp/99% rule decides at the first boundary (25 of
// 60 runs) in every cell, so each fleet must cancel the same tail.
func adaptiveConfig() core.CampaignConfig {
	cfg := testConfig()
	cfg.Injections = 60
	cfg.StopMargin = 0.25
	cfg.StopConfidence = 0.99
	cfg.StopCheckEvery = 25
	return cfg
}

// cellFor builds the coordinator-side cells exactly as the campaign
// service wires them: one deterministic BuildSpecs pass, then the
// config's stopping rules over the same golden cache.
func cellFor(cfg core.CampaignConfig) func(int) ([]fault.Mask, *core.StopRule, error) {
	cache := core.NewGoldenCache()
	return func(campaign int) ([]fault.Mask, *core.StopRule, error) {
		specs, err := cfg.BuildSpecs(cli.Resolve, cache)
		if err != nil {
			return nil, nil, err
		}
		stops, err := cfg.StopRules(specs, cache)
		if err != nil {
			return nil, nil, err
		}
		return specs[campaign].Masks, stops[campaign], nil
	}
}

// TestDistributedAdaptiveDifferential runs the adaptive matrix across
// 1, 2 and 4 workers and asserts each fleet stops every cell at the
// identical point with logs, trace, journal ledger and adaptive info
// matching the single-node run — worker count, shard interleaving and
// merge timing must not move the decision.
func TestDistributedAdaptiveDifferential(t *testing.T) {
	cfg := adaptiveConfig()
	keys := cfg.Keys()
	wantLogs, wantTrace := runSingleNode(t, cfg)

	for _, workers := range []int{1, 2, 4} {
		collector := telemetry.New()
		sink := telemetry.NewTraceSink()
		collector.AddSink(sink)
		logsDir := t.TempDir()
		logs, err := core.NewLogsRepo(logsDir)
		if err != nil {
			t.Fatal(err)
		}
		coord, err := dist.New(cfg, dist.CoordinatorOptions{
			ShardSize: 10,
			Telemetry: collector,
			Cell:      cellFor(cfg),
			JournalFor: func(k string) (*fault.Journal, error) {
				return fault.OpenJournal(logs.JournalPath(k))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := serve(t, plane{"c": coord})

		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				errs <- dist.RunWorker(context.Background(), srv.URL, dist.WorkerOptions{
					ID:      fmt.Sprintf("w%d", w),
					Resolve: cli.Resolve,
					Golden:  core.NewGoldenCache(),
				})
			}(w)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		results, err := coord.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: coordinator: %v", workers, err)
		}
		for w := 0; w < workers; w++ {
			if err := <-errs; err != nil {
				t.Fatalf("workers=%d: worker: %v", workers, err)
			}
		}
		gotLogs, gotTrace := storeAndRead(t, cfg, results, sink)
		srv.Close()
		coord.Close()

		for key, want := range wantLogs {
			if !bytes.Equal(gotLogs[key], want) {
				t.Fatalf("workers=%d: merged log %s differs from single-node\n--- distributed\n%s--- single-node\n%s",
					workers, key, gotLogs[key], want)
			}
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Fatalf("workers=%d: merged trace differs from single-node\n--- distributed\n%s--- single-node\n%s",
				workers, gotTrace, wantTrace)
		}
		for i, res := range results {
			a := res.Adaptive
			if a == nil || !a.StoppedEarly || a.SimulatedRuns != 25 {
				t.Fatalf("workers=%d: cell %d adaptive info %+v, want a stop at 25 runs", workers, i, a)
			}
			if len(res.Records) != 60 {
				t.Fatalf("workers=%d: cell %d settled %d of 60 masks", workers, i, len(res.Records))
			}
		}
		st := coord.Stats()
		if st.Cancelled == 0 {
			t.Fatalf("workers=%d: no shards cancelled by the stop decisions: %+v", workers, st)
		}
		// The ledger is exactly-once across real and stopped rows: every
		// mask journaled once, the cancelled tail flagged as provenance.
		for _, key := range keys {
			seen := make(map[int]int)
			stopped := 0
			f, err := os.Open(logs.JournalPath(key))
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var e fault.JournalEntry
				if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
					t.Fatalf("workers=%d: journal %s: %v", workers, key, err)
				}
				var rec core.LogRecord
				if err := json.Unmarshal(e.Record, &rec); err != nil {
					t.Fatal(err)
				}
				seen[rec.MaskID]++
				if e.StoppedEarly {
					stopped++
				}
			}
			f.Close()
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if len(seen) != 60 {
				t.Fatalf("workers=%d: journal %s covers %d of 60 masks", workers, key, len(seen))
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("workers=%d: journal %s has %d entries for mask %d", workers, key, n, id)
				}
			}
			if stopped != 35 {
				t.Fatalf("workers=%d: journal %s has %d stopped-early entries, want 35", workers, key, stopped)
			}
		}
		// The early-stop counters live ledger-side only (workers never see
		// a stopped run); the service overlays them onto the fleet view.
		snap := collector.Snapshot()
		if snap.CellsStoppedEarly != uint64(len(keys)) || snap.StoppedRuns != uint64(35*len(keys)) {
			t.Fatalf("workers=%d: merged snapshot counts cells=%d runs=%d, want %d/%d",
				workers, snap.CellsStoppedEarly, snap.StoppedRuns, len(keys), 35*len(keys))
		}
	}
}

// TestDistributedAdaptivePrunedDifferential runs a pruned adaptive cell,
// where most masks settle at plan time and the rule's order skips them,
// on 1 and 2 workers: each fleet must feed the rule the same
// plan-simulated runs, cancel the same tail and report the same
// adaptive trailer as the single-node run.
func TestDistributedAdaptivePrunedDifferential(t *testing.T) {
	cfg := testConfig()
	cfg.Campaigns = []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "l1d.data"}}
	cfg.Injections = 200
	cfg.Prune = true
	cfg.StopMargin, cfg.StopConfidence, cfg.StopCheckEvery = 0.25, 0.99, 10

	traced := func() (*telemetry.Collector, *telemetry.TraceSink) {
		collector, sink := telemetry.New(), telemetry.NewTraceSink()
		collector.AddSink(sink)
		return collector, sink
	}
	collector, sink := traced()
	want, err := core.RunConfig(cfg, cli.Resolve, core.Attach{Golden: core.NewGoldenCache(), Telemetry: collector})
	if err != nil {
		t.Fatalf("single-node run: %v", err)
	}
	wantLogs, wantTrace := storeAndRead(t, cfg, want, sink)
	if a := want[0].Adaptive; a == nil || !a.StoppedEarly || a.PlannedRuns == cfg.Injections {
		t.Fatalf("single-node adaptive info %+v: want a pruned cell that stops early", a)
	}

	for _, workers := range []int{1, 2} {
		collector, sink := traced()
		got := runFleet(t, cfg, dist.CoordinatorOptions{ShardSize: 25, Telemetry: collector, Cell: cellFor(cfg)}, workers)
		gotLogs, gotTrace := storeAndRead(t, cfg, got, sink)
		if !reflect.DeepEqual(got[0].Adaptive, want[0].Adaptive) {
			t.Fatalf("workers=%d: adaptive info %+v, single-node %+v", workers, got[0].Adaptive, want[0].Adaptive)
		}
		for key, w := range wantLogs {
			if !bytes.Equal(gotLogs[key], w) {
				t.Fatalf("workers=%d: merged log %s differs from single-node\n--- distributed\n%s--- single-node\n%s",
					workers, key, gotLogs[key], w)
			}
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Fatalf("workers=%d: merged trace differs from single-node", workers)
		}
	}
}

// The coordinator owns the stop decision, so configurations it cannot
// arbitrate are rejected at construction.
func TestDistributedAdaptiveRejections(t *testing.T) {
	cfg := adaptiveConfig()
	if _, err := dist.New(cfg, dist.CoordinatorOptions{ShardSize: 10}); err == nil {
		t.Fatal("coordinator accepted an adaptive config without Cell")
	}
	ex := testConfig()
	ex.Injections = 0
	ex.Exhaustive = true
	if _, err := dist.New(ex, dist.CoordinatorOptions{ShardSize: 10, Cell: cellFor(ex)}); err == nil {
		t.Fatal("coordinator accepted an exhaustive config (no fixed shard geometry)")
	}
}
