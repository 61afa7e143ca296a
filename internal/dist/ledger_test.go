package dist_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/svc/api"
	"repro/internal/telemetry"
)

// completeWith leases the one shard of a 2-mask cell, completes it with
// runs as a worker would ship them, and asserts the coordinator rejects
// the result: the campaign fails with an error naming the row (want),
// Wait returns it, and later leases answer failed.
func completeWith(t *testing.T, runs []core.ShardRun, want string) {
	t.Helper()
	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 2,
		Seed:       1,
	}
	coord, err := dist.New(cfg, dist.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	lease := coord.Lease("w")
	if lease.Status != api.StatusShard || lease.Shard.MaskLo != 0 || lease.Shard.MaskHi != 2 {
		t.Fatalf("lease: %+v, want the shard [0,2)", lease)
	}
	resp := coord.Complete(api.CompleteRequest{WorkerID: "w", ShardID: lease.Shard.ID, Result: &core.ShardResult{Runs: runs}})
	if resp.Accepted || !strings.Contains(resp.Failed, want) {
		t.Fatalf("completion ack %+v, want the campaign failed naming %q", resp, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err = coord.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "rejected row") {
		t.Fatalf("Wait: %v, want a rejected row naming %q", err, want)
	}
	if l := coord.Lease("late"); l.Status != api.StatusFailed {
		t.Fatalf("lease after the rejection: %+v, want %q", l, api.StatusFailed)
	}
}

// simulatedRow is a plausible simulated row of mask index i.
func simulatedRow(i int) core.ShardRun {
	return core.ShardRun{Index: i, Record: core.LogRecord{MaskID: i, Status: "completed", OutputMatch: true}}
}

func TestMergeRejectsUnknownPruned(t *testing.T) {
	completeWith(t, []core.ShardRun{simulatedRow(0), {Index: 1, Pruned: "maybe"}},
		`mask index 1: unknown pruned value "maybe"`)
}

// A replicated row naming a representative past the cell must fail the
// campaign by name: indexing the cell with it panics.
func TestMergeRejectsRepIndexOutOfRange(t *testing.T) {
	completeWith(t, []core.ShardRun{simulatedRow(0), {Index: 1, Pruned: "replicated", RepIndex: 99}},
		"mask index 1: rep_index 99 outside the cell's 2 masks")
}

func TestMergeRejectsSelfReplica(t *testing.T) {
	completeWith(t, []core.ShardRun{simulatedRow(0), {Index: 1, Pruned: "replicated", RepIndex: 1}},
		"mask index 1: replicates itself")
}

// A stub whose representative is a stub has no verdict to take.
func TestMergeRejectsReplicaOfReplica(t *testing.T) {
	completeWith(t, []core.ShardRun{{Index: 0, Pruned: "replicated", RepIndex: 1}, {Index: 1, Pruned: "replicated", RepIndex: 0}},
		"mask index 1: replicates mask index 0, itself a replicated row")
}

// A result that repeats one index and omits another fails at merge,
// before any of it commits.
func TestMergeRejectsRepeatedIndex(t *testing.T) {
	completeWith(t, []core.ShardRun{simulatedRow(0), simulatedRow(0)},
		"mask index 0: repeated in one shard result")
}

// TestCoordinatorResume runs an adaptive, pruned campaign single-node
// with a journal, cuts the journal after some of its stopped-early rows,
// and resumes a coordinator over the cut journal with 1 and 2 workers —
// and with 2 workers over the cut plus half of the next line, the tail a
// crash in the middle of the coordinator's batch write leaves, which
// must reopen at the cut.
// Logs (adaptive trailer included) and trace must equal the
// uninterrupted run's; the divergence file must too, except that a
// resumed row is flagged — and it must equal a single-node resume over
// the same cut journal. The coordinator replays exactly the journaled
// simulated rows, and the journal ends with every mask exactly once.
func TestCoordinatorResume(t *testing.T) {
	cfg := testConfig()
	cfg.Campaigns = []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "l1d.data"}}
	cfg.Injections = 200
	cfg.Prune = true
	cfg.Divergence = true
	cfg.StopMargin, cfg.StopConfidence, cfg.StopCheckEvery = 0.25, 0.99, 10
	key := cfg.Keys()[0]

	traced := func() (*telemetry.Collector, *telemetry.TraceSink) {
		collector, sink := telemetry.New(), telemetry.NewTraceSink()
		collector.AddSink(sink)
		return collector, sink
	}
	refDir := t.TempDir()
	jnl, err := fault.OpenJournal(filepath.Join(refDir, "ref.journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	collector, sink := traced()
	want, err := core.RunConfig(cfg, cli.Resolve, core.Attach{
		Golden: core.NewGoldenCache(), Telemetry: collector, Journal: jnl,
	})
	jnl.Close()
	if err != nil {
		t.Fatalf("single-node run: %v", err)
	}
	wantLogs, wantTrace := storeAndRead(t, cfg, want, sink)
	wantDiv := core.DivergenceRows(want)

	// The cut: every simulated line (they all precede the stop rows),
	// then the first half of the stopped-early lines.
	raw, err := os.ReadFile(jnl.Path())
	if err != nil {
		t.Fatal(err)
	}
	var cut bytes.Buffer
	var next []byte // the first line past the cut
	journaled := map[int]bool{}
	simulatedLines, stoppedLines, stoppedTotal := 0, 0, 0
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		var e fault.JournalEntry
		if len(line) > 0 && json.Unmarshal(line, &e) == nil && e.StoppedEarly {
			stoppedTotal++
		}
	}
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		var e fault.JournalEntry
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		if e.StoppedEarly {
			if stoppedLines == stoppedTotal/2 {
				next = line
				break
			}
			stoppedLines++
		} else {
			simulatedLines++
		}
		journaled[e.MaskID] = true
		cut.Write(line)
	}
	if simulatedLines == 0 || stoppedLines == 0 || stoppedLines == stoppedTotal {
		t.Fatalf("the cut keeps %d simulated and %d of %d stopped lines; it must keep some of each and drop some stopped ones",
			simulatedLines, stoppedLines, stoppedTotal)
	}
	t.Logf("the cut keeps %d simulated and %d of %d stopped-early lines", simulatedLines, stoppedLines, stoppedTotal)
	// torn adds half of the next line: a crash in the middle of the
	// coordinator's batch write, which must reopen at the cut.
	cutJournal := func(torn bool) string {
		path := filepath.Join(t.TempDir(), key+".journal.jsonl")
		b := bytes.Clone(cut.Bytes())
		if torn {
			b = append(b, next[:len(next)/2]...)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// A resumed divergence row is the uninterrupted row flagged resumed:
	// the journal line carries its footprint and verdict.
	wantResumedDiv := make([]divergence.Record, len(wantDiv))
	for i, d := range wantDiv {
		if journaled[d.MaskID] && d.Pruned == "" {
			d.Resumed = true
		}
		wantResumedDiv[i] = d
	}

	// The single-node resume over the same cut.
	sj, err := fault.OpenJournal(cutJournal(false))
	if err != nil {
		t.Fatal(err)
	}
	collector, _ = traced()
	single, err := core.RunConfig(cfg, cli.Resolve, core.Attach{
		Golden: core.NewGoldenCache(), Telemetry: collector, Journal: sj, Resume: true,
	})
	if err != nil {
		t.Fatalf("single-node resume: %v", err)
	}
	singleDiv := core.DivergenceRows(single)
	sj.Close()
	checkExactlyOnce(t, "single-node resume", sj.Path(), len(want[0].Records))

	for _, tc := range []struct {
		workers int
		torn    bool
	}{{1, false}, {2, false}, {2, true}} {
		workers := tc.workers
		name := fmt.Sprintf("workers=%d torn=%v", workers, tc.torn)
		path := cutJournal(tc.torn)
		collector, sink := traced()
		coord, err := dist.New(cfg, dist.CoordinatorOptions{
			ShardSize: 25, Telemetry: collector, Cell: cellFor(cfg), Resume: true,
			JournalFor: func(string) (*fault.Journal, error) { return fault.OpenJournal(path) },
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := coord.ResumedRuns(); got != simulatedLines {
			t.Fatalf("%s: coordinator resumed %d runs, the journal holds %d simulated rows", name, got, simulatedLines)
		}
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
		got, err := coord.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s: coordinator: %v", name, err)
		}
		for w := 0; w < workers; w++ {
			if err := <-errs; err != nil {
				t.Fatalf("%s: worker: %v", name, err)
			}
		}
		srv.Close()
		coord.Close()

		gotLogs, gotTrace := storeAndRead(t, cfg, got, sink)
		if !bytes.Equal(gotLogs[key], wantLogs[key]) {
			t.Fatalf("%s: resumed log differs from the uninterrupted run\n--- resumed\n%s--- uninterrupted\n%s", name, gotLogs[key], wantLogs[key])
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Fatalf("%s: resumed trace differs from the uninterrupted run", name)
		}
		gotDiv := core.DivergenceRows(got)
		if !reflect.DeepEqual(gotDiv, wantResumedDiv) {
			t.Fatalf("%s: resumed divergence rows differ from the uninterrupted run's\n resumed:       %+v\n uninterrupted: %+v", name, gotDiv, wantResumedDiv)
		}
		if !reflect.DeepEqual(gotDiv, singleDiv) {
			t.Fatalf("%s: fleet and single-node resumes over one journal differ in their divergence rows", name)
		}
		checkExactlyOnce(t, name, path, len(got[0].Records))
	}
}

// checkExactlyOnce asserts that the journal at path holds every
// journaled mask once: the simulated and stopped-early rows of a cell of
// n masks, none twice.
func checkExactlyOnce(t *testing.T, name, path string, n int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[int]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e fault.JournalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if seen[e.MaskID] {
			t.Fatalf("%s: journal holds mask %d twice", name, e.MaskID)
		}
		seen[e.MaskID] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 || len(seen) > n {
		t.Fatalf("%s: journal covers %d masks of %d", name, len(seen), n)
	}
}
