package svc_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bitarray"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/svc/api"
	"repro/internal/svc/client"
	"repro/internal/telemetry"
)

// fillerSim is a machine whose golden run costs nothing: rows of it push
// real rows out of a worker's golden cache.
type fillerSim struct{ arr *bitarray.Array }

func (fillerSim) Name() string { return "filler" }
func (fillerSim) ISA() string  { return "x86" }
func (s fillerSim) Structures() map[string]*bitarray.Array {
	return map[string]*bitarray.Array{"s": s.arr}
}
func (fillerSim) WatchArrays([]*bitarray.Array) {}
func (fillerSim) SetEarlyStop(bool)             {}
func (fillerSim) Stats() map[string]uint64      { return nil }
func (fillerSim) Run(uint64) core.RunResult {
	return core.RunResult{Status: core.RunCompleted, Cycles: 1, Committed: 1}
}

// referenceJournals runs cfg single-node with a journal attached and
// returns the journal bytes per campaign key.
func referenceJournals(t *testing.T, cfg core.CampaignConfig) map[string][]byte {
	t.Helper()
	logs, err := core.NewLogsRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for i, key := range cfg.Keys() {
		one := cfg
		one.Campaigns = cfg.Campaigns[i : i+1]
		j, err := fault.OpenJournal(logs.JournalPath(key))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.RunConfig(one, cli.Resolve, core.Attach{Journal: j}); err != nil {
			t.Fatalf("single-node journaled run: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if out[key], err = os.ReadFile(logs.JournalPath(key)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestWarmWorkerSharesArtifactsAcrossCampaigns is the sharing claim of
// the long-lived worker cache: one fleet worker serves two campaigns on
// the same {tool, benchmark} row that differ in everything an artifact
// is keyed on — ladder K and structure —
// with the second campaign's shards running in the middle of the
// first's and the row evicted from the cache part-way through. Each
// campaign's logs, trace and journal must be byte-identical to its
// single-node RunConfig; the row is simulated once per worker (plus once
// for the eviction), not once per shard; each config is fetched once.
func TestWarmWorkerSharesArtifactsAcrossCampaigns(t *testing.T) {
	cell := func(structure string) []core.CampaignCell {
		return []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: structure}}
	}
	cfgA := core.CampaignConfig{
		Campaigns: cell("rf.int"), Injections: 24, Seed: 5, Workers: 1, LiveOnly: true,
		Prune: true, CheckpointLadder: 2,
		DetailWindow: true, WindowPre: 2000, WindowPost: 1000,
	}
	cfgB := core.CampaignConfig{
		Campaigns: cell("l1d.data"), Injections: 12, Seed: 9, Workers: 1,
		Prune: true, CheckpointLadder: 3,
		DetailWindow: true, WindowPre: 2000, WindowPost: 1000,
	}
	const shardsA, shardsB = 6, 3 // at the test service's ShardSize of 4

	dir := t.TempDir()
	s := newService(t, dir, nil)
	defer s.Close()
	var (
		fetchMu sync.Mutex
		fetches = map[string]int{} // config GETs by path
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/config") && strings.Contains(r.URL.Path, "/campaigns/") {
			fetchMu.Lock()
			fetches[r.URL.Path]++
			fetchMu.Unlock()
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	ctx := context.Background()
	cl := client.New(srv.URL)

	submit := func(name string, cfg core.CampaignConfig, priority int) api.CampaignStatus {
		st, err := cl.Submit(ctx, api.SubmitRequest{
			Name: name, Priority: priority, Config: cfg,
			Options: api.SubmitOptions{Trace: true, Journal: true},
		})
		if err != nil {
			t.Errorf("submit %s: %v", name, err)
		}
		return st
	}
	stA := submit("a", cfgA, 0)

	// The worker resolves its factory once per shard, which makes the
	// resolver a deterministic hook between shards: at A's third shard
	// the higher-priority B is submitted, so B's shards run before A's
	// remaining ones; at the second-to-last shard overall the row is
	// pushed out of the cache by filler rows. served records which
	// campaign each shard came from, in run order.
	cache := core.NewGoldenCache()
	submittedB := make(chan api.CampaignStatus, 1)
	var (
		shards, fillers int      // the worker's until it has stopped
		served          []string // "a" or "b" per shard
		idB             string
	)
	resolve := func(tool, bench string) (core.Factory, error) {
		shards++
		from := "a"
		if idB != "" {
			for _, ws := range s.Fleet(idB) {
				if ws.ID == "w" && ws.Shard >= 0 {
					from = "b"
				}
			}
		}
		served = append(served, from)
		switch shards {
		case 3:
			st := submit("b", cfgB, 1)
			// A lease skips a campaign still planning (no shard ledger
			// yet) and falls through to A. Hold A's third shard until B is
			// running, so B's shards are the worker's next three however
			// slowly B's planning goroutine gets scheduled.
			for {
				if got, err := s.Get("", st.ID); err != nil || (got.State != api.StateQueued && got.State != api.StatePlanning) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			idB = st.ID
			submittedB <- st
		case shardsA + shardsB - 1:
			before := observeCache(cache).CacheEvictions
			for ; observeCache(cache).CacheEvictions == before; fillers++ {
				filler := func() core.Simulator { return fillerSim{arr: bitarray.New("s", 1, 64)} }
				if _, err := cache.Golden("filler", fmt.Sprint(fillers), filler); err != nil {
					return nil, err
				}
			}
		}
		return cli.Resolve(tool, bench)
	}
	wctx, stopWorker := context.WithCancel(ctx)
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- dist.RunWorker(wctx, srv.URL, dist.WorkerOptions{
			ID: "w", Resolve: resolve, Golden: cache, Poll: 10 * time.Millisecond,
		})
	}()
	stB := <-submittedB
	for _, id := range []string{stA.ID, stB.ID} {
		if st, err := cl.Wait(ctx, id, 10*time.Millisecond); err != nil || st.State != api.StateDone {
			stopWorker()
			t.Fatalf("campaign %s: %+v, %v", id, st, err)
		}
	}
	stopWorker()
	if err := <-workerDone; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("worker: %v", err)
	}
	if shards != shardsA+shardsB {
		t.Fatalf("worker ran %d shards, want %d", shards, shardsA+shardsB)
	}

	for _, c := range []struct {
		id  string
		cfg core.CampaignConfig
	}{{stA.ID, cfgA}, {stB.ID, cfgB}} {
		wantLogs, wantTrace := singleNodeReference(t, c.cfg)
		logsDir := filepath.Join(dir, "logs", c.id)
		compareCampaignArtifacts(t, logsDir, c.cfg, wantLogs, wantTrace)
		for key, want := range referenceJournals(t, c.cfg) {
			// The coordinator creates a journal at its first simulated run.
			got, err := os.ReadFile(filepath.Join(logsDir, key+".journal.jsonl"))
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				t.Fatal(err)
			}
			if len(want) == 0 || !bytes.Equal(got, want) {
				t.Errorf("journal of %s differs from single-node reference (%d vs %d bytes)", key, len(got), len(want))
			}
		}
	}

	// One golden simulation of the row for nine shards of two campaigns,
	// one more after the eviction; the fillers account for the rest.
	if got, want := cache.Runs(), 2+fillers; got != want {
		t.Errorf("worker cache ran %d golden simulations, want %d (row once, once more after eviction, %d fillers)", got, want, fillers)
	}
	if want := []string{"a", "a", "a", "b", "b", "b", "a", "a", "a"}; !reflect.DeepEqual(served, want) {
		t.Errorf("shards ran in campaign order %v, want %v", served, want)
	}
	// A's K=2 ladder and rf.int profile, B's K=3 ladder and l1d.data
	// profile: each built once, never once per shard, and rebuilt once
	// after the eviction for each campaign a later shard served.
	rebuilt := map[string]bool{}
	for _, c := range served[shardsA+shardsB-2:] {
		rebuilt[c] = true
	}
	cs := observeCache(cache)
	if want := uint64(2 + len(rebuilt)); cs.LadderBuilds != want || cs.ProfileBuilds != want {
		t.Errorf("%d ladder builds and %d profile builds for %d shards, want %d of each", cs.LadderBuilds, cs.ProfileBuilds, shards, want)
	}
	if cs.LadderHits+cs.LadderBuilds != uint64(shards) {
		t.Errorf("%d ladder lookups for %d shards", cs.LadderHits+cs.LadderBuilds, shards)
	}
	fetchMu.Lock()
	defer fetchMu.Unlock()
	if len(fetches) != 2 {
		t.Errorf("configs fetched for %d campaigns, want 2: %v", len(fetches), fetches)
	}
	for path, n := range fetches {
		if n != 1 {
			t.Errorf("%s fetched %d times, want once per campaign", path, n)
		}
	}
}

func observeCache(c *core.GoldenCache) telemetry.Snapshot {
	var s telemetry.Snapshot
	c.Observe(&s)
	return s
}
