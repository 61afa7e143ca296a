package dist_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/divergence"
	"repro/internal/telemetry"
)

// eventLog is a telemetry sink keeping every run-end event.
type eventLog struct {
	mu  sync.Mutex
	evs []telemetry.RunEvent
}

func (l *eventLog) RunEvent(ev telemetry.RunEvent) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

// sorted returns the events in (campaign, mask) order with the one
// host-timing field zeroed.
func (l *eventLog) sorted() []telemetry.RunEvent {
	evs := append([]telemetry.RunEvent(nil), l.evs...)
	for i := range evs {
		evs[i].Wall = 0
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Campaign != evs[j].Campaign {
			return evs[i].Campaign < evs[j].Campaign
		}
		return evs[i].MaskID < evs[j].MaskID
	})
	return evs
}

// runFleet executes cfg on a coordinator with the given options and n
// in-process workers.
func runFleet(t *testing.T, cfg core.CampaignConfig, opt dist.CoordinatorOptions, workers int) []*core.CampaignResult {
	t.Helper()
	coord, err := dist.New(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := serve(t, plane{"c": coord})
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			errs <- dist.RunWorker(context.Background(), srv.URL, dist.WorkerOptions{
				ID: fmt.Sprintf("w%d", w), Resolve: cli.Resolve, Golden: core.NewGoldenCache(),
			})
		}(w)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	results, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	return results
}

// twinnedMasks is an explicit, explicitly weighted population in which
// replication is certain: the generated masks of cfg's first cell, each
// followed by a twin one cycle later (same liveness interval, so the
// pruner collapses the twin onto its original whenever the original
// simulates). Every mask carries its own sampling weight.
func twinnedMasks(t *testing.T, cfg core.CampaignConfig) core.CampaignConfig {
	t.Helper()
	specs, err := cfg.BuildSpecs(cli.Resolve, core.NewGoldenCache())
	if err != nil {
		t.Fatal(err)
	}
	cell := cfg.Campaigns[0]
	for _, m := range specs[0].Masks {
		twin := m
		twin.Sites = append(twin.Sites[:0:0], m.Sites...)
		twin.Sites[0].Cycle++
		m.ID, twin.ID = 2*m.ID, 2*m.ID+1
		m.Weight, twin.Weight = 1+0.25*float64(m.ID), 1+0.25*float64(twin.ID)
		cell.Masks = append(cell.Masks, m, twin)
	}
	cfg.Campaigns = []core.CampaignCell{cell}
	cfg.Injections = 0
	return cfg
}

// TestDistributedWeightedPruneMatchesSingleNode: a replicated row keeps
// its own sampling weight wherever it is resolved. The single-node plan
// settle restamped it; the coordinator's finalize used to keep the
// representative's (and the wire stub carried none), so a distributed
// pruned campaign over weighted masks wrote different logs.
func TestDistributedWeightedPruneMatchesSingleNode(t *testing.T) {
	cfg := twinnedMasks(t, core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "l1d.data"}},
		Injections: 30,
		Seed:       7,
		Prune:      true,
	})
	wantLogs, wantTrace := runSingleNode(t, cfg)

	sink := telemetry.NewTraceSink()
	events := &eventLog{}
	collector := telemetry.New()
	collector.AddSink(sink)
	collector.AddSink(events)
	results := runFleet(t, cfg, dist.CoordinatorOptions{ShardSize: 7, Telemetry: collector}, 2)
	gotLogs, gotTrace := storeAndRead(t, cfg, results, sink)

	replicated := 0
	for _, ev := range events.evs {
		if ev.Pruned == "replicated" {
			replicated++
		}
	}
	if replicated == 0 {
		t.Fatal("the twinned population produced no replicated rows; the test exercises nothing")
	}
	for key, want := range wantLogs {
		gotLines, wantLines := bytes.Split(gotLogs[key], []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range wantLines {
			if i >= len(gotLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("merged log %s of a weighted pruned campaign (%d replicated rows) differs from single-node at line %d\n distributed: %s\n single-node: %s",
					key, replicated, i+1, gotLines[min(i, len(gotLines)-1)], wantLines[i])
			}
		}
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Fatal("merged trace differs from single-node")
	}
}

// TestDistributedEventStreamMatchesSingleNode runs one config that turns
// on everything an outcome can carry — prune, checkpoint ladder, detail
// window, divergence provenance and an early stop — single-node and on a
// 2-worker fleet, and compares the complete run-end event streams field
// by field (the byte-identity tests compare only the serialized trace
// subset). Wall, the one host-timing field, is excluded.
func TestDistributedEventStreamMatchesSingleNode(t *testing.T) {
	cfg := twinnedMasks(t, core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "l1d.data"}},
		Injections: 60,
		Seed:       7,
	})
	cfg.Prune = true
	cfg.CheckpointLadder = 3
	cfg.DetailWindow = true
	cfg.WindowPre = 2000
	cfg.WindowPost = 1000
	cfg.Divergence = true
	cfg.StopMargin = 0.3
	cfg.StopConfidence = 0.95
	cfg.StopCheckEvery = 10

	run := func(fleet bool) ([]telemetry.RunEvent, []divergence.Record) {
		events := &eventLog{}
		collector := telemetry.New()
		collector.AddSink(events)
		var results []*core.CampaignResult
		if fleet {
			results = runFleet(t, cfg, dist.CoordinatorOptions{
				ShardSize: 9, Telemetry: collector, Cell: cellFor(cfg),
			}, 2)
		} else {
			var err error
			if results, err = core.RunConfig(cfg, cli.Resolve, core.Attach{
				Golden: core.NewGoldenCache(), Telemetry: collector,
			}); err != nil {
				t.Fatalf("single-node run: %v", err)
			}
		}
		return events.sorted(), core.DivergenceRows(results)
	}
	want, wantDiv := run(false)
	got, gotDiv := run(true)

	seen := map[string]int{}
	for _, ev := range want {
		switch {
		case ev.Stopped:
			seen["stopped"]++
		case ev.Pruned != "":
			seen[ev.Pruned]++
		default:
			seen["simulated"]++
			if ev.Windowed {
				seen["windowed"]++
			}
			if ev.LadderRestored {
				seen["restored"]++
			}
		}
		// RepMask's contract: the representative's mask ID on replicated
		// events, -1 on every other (mask IDs start at 0).
		if (ev.Pruned == "replicated") != (ev.RepMask >= 0) {
			t.Fatalf("single-node event of mask %d (pruned %q, stopped %v) carries RepMask %d", ev.MaskID, ev.Pruned, ev.Stopped, ev.RepMask)
		}
	}
	for _, kind := range []string{"simulated", "dead", "replicated", "stopped", "windowed"} {
		if seen[kind] == 0 {
			t.Fatalf("the config produced no %s outcome (%v); the comparison would not cover it", kind, seen)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fleet emitted %d events, single-node %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("event %d (mask %d) differs\n fleet:       %+v\n single-node: %+v", i, want[i].MaskID, got[i], want[i])
		}
	}
	if !reflect.DeepEqual(gotDiv, wantDiv) {
		t.Fatalf("divergence rows differ\n fleet:       %+v\n single-node: %+v", gotDiv, wantDiv)
	}
}
