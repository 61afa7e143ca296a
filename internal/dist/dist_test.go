package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/svc/api"
	"repro/internal/telemetry"
)

// testConfig is the shared matrix of the differential tests: two
// structures of one {tool, benchmark} row, small enough to run in
// seconds, big enough to shard.
func testConfig() core.CampaignConfig {
	return core.CampaignConfig{
		Campaigns: []core.CampaignCell{
			{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"},
			{Tool: "gefin-x86", Benchmark: "qsort", Structure: "lsq.data"},
		},
		Injections: 10,
		Seed:       7,
	}
}

// runSingleNode is the reference semantics: one RunConfig call, logs
// stored per campaign, trace flushed from a collector-attached sink.
func runSingleNode(t *testing.T, cfg core.CampaignConfig) (map[string][]byte, []byte) {
	t.Helper()
	collector := telemetry.New()
	sink := telemetry.NewTraceSink()
	collector.AddSink(sink)
	results, err := core.RunConfig(cfg, cli.Resolve, core.Attach{
		Golden: core.NewGoldenCache(), Telemetry: collector,
	})
	if err != nil {
		t.Fatalf("single-node run: %v", err)
	}
	return storeAndRead(t, cfg, results, sink)
}

func storeAndRead(t *testing.T, cfg core.CampaignConfig, results []*core.CampaignResult, sink *telemetry.TraceSink) (map[string][]byte, []byte) {
	t.Helper()
	logs, err := core.NewLogsRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for i, key := range cfg.Keys() {
		if err := logs.Store(key, results[i]); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(logs.Dir(), key+".log.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		out[key] = b
	}
	var trace bytes.Buffer
	if err := sink.Flush(&trace); err != nil {
		t.Fatal(err)
	}
	return out, trace.Bytes()
}

// runDistributed executes cfg through a coordinator and n in-process
// workers, returning the merged logs/trace bytes and shard accounting.
func runDistributed(t *testing.T, cfg core.CampaignConfig, workers, shardSize int) (map[string][]byte, []byte, dist.Stats) {
	t.Helper()
	collector := telemetry.New()
	sink := telemetry.NewTraceSink()
	collector.AddSink(sink)
	coord, err := dist.New(cfg, dist.CoordinatorOptions{
		ShardSize: shardSize,
		Telemetry: collector,
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
	logs, trace := storeAndRead(t, cfg, results, sink)
	return logs, trace, coord.Stats()
}

// TestDistributedMatrixDifferential is the acceptance differential: a
// matrix distributed across 1, 2 and 4 workers must produce logs and a
// trace byte-identical to a single-node run of the same config — plain,
// and with pruning plus the checkpoint ladder composed in.
func TestDistributedMatrixDifferential(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*core.CampaignConfig)
	}{
		{"plain", func(*core.CampaignConfig) {}},
		{"prune+ladder", func(c *core.CampaignConfig) {
			c.Prune = true
			c.PruneVerify = 2
			c.CheckpointLadder = 3
		}},
		{"window", func(c *core.CampaignConfig) {
			c.DetailWindow = true
			c.WindowPre = 2000
			c.WindowPost = 1000
			c.WindowVerify = 2
		}},
		{"window+prune+ladder", func(c *core.CampaignConfig) {
			c.DetailWindow = true
			c.WindowPre = 2000
			c.WindowPost = 1000
			c.Prune = true
			c.CheckpointLadder = 3
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := testConfig()
			v.mut(&cfg)
			wantLogs, wantTrace := runSingleNode(t, cfg)
			for _, workers := range []int{1, 2, 4} {
				gotLogs, gotTrace, st := runDistributed(t, cfg, workers, 3)
				if st.Completed != st.Shards {
					t.Fatalf("workers=%d: %d of %d shards completed", workers, st.Completed, st.Shards)
				}
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
			}
		})
	}
}

func postLease(t *testing.T, url, worker string) api.LeaseResponse {
	t.Helper()
	b, _ := json.Marshal(api.LeaseRequest{WorkerID: worker})
	resp, err := http.Post(url+"/v1/lease", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lease api.LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	return lease
}

// TestWorkerDeathRequeue kills a worker the hard way — it leases a
// shard and never heartbeats — and asserts the lease expires, the shard
// is requeued exactly once, a surviving worker completes it, the
// journal stays exactly-once, and the zombie's late completion is
// discarded as a duplicate.
func TestWorkerDeathRequeue(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 6,
		Seed:       3,
	}
	key := cfg.Keys()[0]
	logs, err := core.NewLogsRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := dist.New(cfg, dist.CoordinatorOptions{
		ShardSize:    3,
		LeaseTTL:     150 * time.Millisecond,
		RetryBackoff: 10 * time.Millisecond,
		JournalFor: func(k string) (*fault.Journal, error) {
			return fault.OpenJournal(logs.JournalPath(k))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := serve(t, plane{"c": coord})

	// The zombie takes the first shard and goes silent.
	lease := postLease(t, srv.URL, "zombie")
	if lease.Status != api.StatusShard {
		t.Fatalf("zombie lease: %+v", lease)
	}
	zombieShard := lease.Shard.ID

	errs := make(chan error, 1)
	go func() {
		errs <- dist.RunWorker(context.Background(), srv.URL, dist.WorkerOptions{
			ID: "survivor", Resolve: cli.Resolve,
		})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if got := len(results[0].Records); got != 6 {
		t.Fatalf("merged %d records, want 6", got)
	}
	st := coord.Stats()
	if st.Requeues != 1 {
		t.Fatalf("requeues = %d, want exactly 1 (the zombie's shard)", st.Requeues)
	}
	if st.Completed != st.Shards {
		t.Fatalf("%d of %d shards completed", st.Completed, st.Shards)
	}

	// The journal is the exactly-once ledger: every simulated mask once,
	// no mask twice, even though one shard was assigned twice.
	entries, err := fault.ReadJournalFile(logs.JournalPath(key))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 {
		t.Fatalf("journal has %d entries, want 6", len(entries))
	}
	seen := map[int]bool{}
	for _, e := range entries {
		if e.Campaign != key || seen[e.MaskID] {
			t.Fatalf("journal entry duplicated or mislabeled: %+v", e)
		}
		seen[e.MaskID] = true
	}

	// The zombie wakes up and reports its long-finished shard: the
	// completion must be acknowledged but discarded.
	b, _ := json.Marshal(api.CompleteRequest{
		WorkerID: "zombie", ShardID: zombieShard, CampaignID: lease.CampaignID, Result: &core.ShardResult{},
	})
	resp, err := http.Post(srv.URL+"/v1/complete", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr api.CompleteResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if !cr.OK || cr.Accepted {
		t.Fatalf("zombie completion: %+v (want acknowledged, not accepted)", cr)
	}
	if st := coord.Stats(); st.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", st.Duplicates)
	}
	if entries, err = fault.ReadJournalFile(logs.JournalPath(key)); err != nil || len(entries) != 6 {
		t.Fatalf("journal changed after duplicate completion: %d entries (%v)", len(entries), err)
	}
}

// TestWorkerFailureFailsCampaign: a deterministic shard error is fatal
// for the whole campaign — retrying identical masks elsewhere would
// fail identically.
func TestWorkerFailureFailsCampaign(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 4,
	}
	coord, err := dist.New(cfg, dist.CoordinatorOptions{ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(t, plane{"c": coord})

	badResolve := func(tool, benchmark string) (core.Factory, error) {
		return nil, fmt.Errorf("no simulator on this host")
	}
	werr := dist.RunWorker(context.Background(), srv.URL, dist.WorkerOptions{ID: "bad", Resolve: badResolve})
	if werr == nil {
		t.Fatal("worker with a broken resolver succeeded")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := coord.Wait(ctx); err == nil {
		t.Fatal("campaign succeeded despite a deterministic shard failure")
	}
	// Later workers are told to stop, not handed the poisoned shard.
	if lease := postLease(t, srv.URL, "late"); lease.Status != api.StatusFailed {
		t.Fatalf("post-failure lease: %+v, want %q", lease, api.StatusFailed)
	}
}
