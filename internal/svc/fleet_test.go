package svc_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/svc"
	"repro/internal/svc/api"
	"repro/internal/svc/client"
	"repro/internal/telemetry"
)

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s does not parse: %v", url, err)
	}
}

// firstSSEEvent subscribes to an SSE endpoint and returns the event name
// of the first frame.
func firstSSEEvent(t *testing.T, url string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("GET %s: Content-Type %q, want text/event-stream", url, ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			return name
		}
	}
	t.Fatalf("GET %s: stream ended before a frame: %v", url, sc.Err())
	return ""
}

// TestFleetSnapshotAggregation runs a clean campaign on a one-shot
// service with per-worker collectors and checks the observability plane
// end to end: the fleet-aggregated snapshot equals the sum of the worker
// snapshots, /v1/snapshot.json and /v1/metrics serve the aggregate,
// /v1/fleet.json and the campaign's own fleet.json are views of one
// table with every worker final and every shard counted once, the SSE
// feeds open with a snapshot frame, and once every campaign is terminal
// a lease answers "done".
func TestFleetSnapshotAggregation(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns: []core.CampaignCell{
			{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"},
			{Tool: "gefin-x86", Benchmark: "qsort", Structure: "lsq.data"},
		},
		Injections: 10,
		Seed:       7,
	}
	s := newService(t, t.TempDir(), func(o *svc.Options) {
		o.ShardSize = 3
		o.ExitWhenIdle = true
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ctx := context.Background()
	cl := client.New(srv.URL)
	st, err := cl.Submit(ctx, api.SubmitRequest{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 2
	collectors := make([]*telemetry.Collector, workers)
	caches := make([]*core.GoldenCache, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		collectors[w] = telemetry.New()
		caches[w] = core.NewGoldenCache()
		go func(w int) {
			errs <- dist.RunWorker(ctx, srv.URL, dist.WorkerOptions{
				ID:        fmt.Sprintf("w%d", w),
				Resolve:   cli.Resolve,
				Golden:    caches[w],
				Telemetry: collectors[w],
				Poll:      20 * time.Millisecond,
			})
		}(w)
	}
	final, err := cl.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil || final.State != api.StateDone {
		t.Fatalf("campaign: %+v, %v", final, err)
	}
	// One-shot mode: with every campaign terminal the workers are told
	// "done", post their final snapshots and exit on their own.
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if !s.WaitFleetFinal(10 * time.Second) {
		t.Fatal("fleet never settled: a worker's final snapshot is missing")
	}

	total := uint64(len(cfg.Campaigns) * cfg.Injections)
	fleet := s.FleetSnapshot()
	if fleet.RunsDone != total {
		t.Fatalf("fleet RunsDone = %d, want %d", fleet.RunsDone, total)
	}
	var sumDone, sumCycles uint64
	for _, c := range collectors {
		snap := c.Snapshot()
		sumDone += snap.RunsDone
		sumCycles += snap.SimCycles
	}
	if fleet.RunsDone != sumDone || fleet.SimCycles != sumCycles {
		t.Fatalf("fleet totals %d runs/%d cycles != worker sums %d/%d",
			fleet.RunsDone, fleet.SimCycles, sumDone, sumCycles)
	}
	if len(fleet.Campaigns) != len(cfg.Campaigns) {
		t.Fatalf("fleet has %d campaign rows, want %d", len(fleet.Campaigns), len(cfg.Campaigns))
	}
	// The workers' golden caches surface in the fleet view: which worker
	// simulated what, and what it holds, is answerable from the snapshot.
	goldenRuns := 0
	for _, c := range caches {
		goldenRuns += c.Runs()
	}
	if goldenRuns == 0 || fleet.GoldenRuns != uint64(goldenRuns) || fleet.CacheRows == 0 || fleet.CacheBytes == 0 {
		t.Fatalf("fleet cache view: %d golden runs (worker caches ran %d), %d rows, %d bytes",
			fleet.GoldenRuns, goldenRuns, fleet.CacheRows, fleet.CacheBytes)
	}

	// The HTTP plane serves the same aggregate.
	var served telemetry.Snapshot
	getJSON(t, srv.URL+"/v1/snapshot.json", &served)
	if served.RunsDone != total {
		t.Fatalf("/v1/snapshot.json RunsDone = %d, want %d", served.RunsDone, total)
	}
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	if want := fmt.Sprintf("faultinject_runs_done_total %d", total); !strings.Contains(metrics, want) {
		t.Fatalf("/v1/metrics lacks %q", want)
	}
	for _, name := range []string{"runs_done_total", "cache_rows", "cache_bytes", "profile_builds_total"} {
		if !strings.Contains(metrics, "# HELP faultinject_"+name+" ") {
			t.Fatalf("/v1/metrics lacks the HELP line of faultinject_%s", name)
		}
	}

	// One fleet table, two views of it.
	for _, path := range []string{"/v1/fleet.json", "/v1/campaigns/" + st.ID + "/fleet.json"} {
		var statuses []api.WorkerStatus
		getJSON(t, srv.URL+path, &statuses)
		if len(statuses) != workers {
			t.Fatalf("%s lists %d workers, want %d", path, len(statuses), workers)
		}
		shards := 0
		for _, ws := range statuses {
			if !ws.Final || ws.Shard != -1 {
				t.Fatalf("%s: worker %s not final and idle after WaitFleetFinal: %+v", path, ws.ID, ws)
			}
			shards += ws.ShardsDone
		}
		if shards != final.Shards {
			t.Fatalf("%s counts %d accepted shards, the campaign has %d", path, shards, final.Shards)
		}
	}
	if status, e := getEnvelope(t, srv.URL+"/v1/campaigns/nope/fleet.json"); status != http.StatusNotFound || e.Code != api.CodeNotFound {
		t.Fatalf("fleet view of an unknown campaign: status %d, envelope %+v", status, e)
	}

	for _, path := range []string{"/v1/events", "/v1/campaigns/" + st.ID + "/events"} {
		if ev := firstSSEEvent(t, srv.URL+path); ev != "snapshot" {
			t.Fatalf("%s: first frame is %q, want snapshot", path, ev)
		}
	}
	if lease := s.Lease("late"); lease.Status != api.StatusDone {
		t.Fatalf("post-campaign lease on a one-shot service: %+v, want %q", lease, api.StatusDone)
	}
}

// TestServiceWorkerDrain closes a worker's drain channel as its first
// shard completion arrives and checks what the fleet table keeps of it:
// the delivered shard is counted, the worker is final and idle, its
// final snapshot is the fleet's, and a completion that straggles in
// after the final word cannot roll the snapshot back.
func TestServiceWorkerDrain(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 12,
		Seed:       11,
	}
	s := newService(t, t.TempDir(), func(o *svc.Options) { o.ShardSize = 2 })
	defer s.Close()
	drain := make(chan struct{})
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/complete" {
			once.Do(func() { close(drain) })
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	ctx := context.Background()
	cl := client.New(srv.URL)
	st, err := cl.Submit(ctx, api.SubmitRequest{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New()
	err = dist.RunWorker(ctx, srv.URL, dist.WorkerOptions{
		ID:        "draining",
		Resolve:   cli.Resolve,
		Golden:    core.NewGoldenCache(),
		Telemetry: tel,
		Drain:     drain,
		Poll:      20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("draining worker: %v", err)
	}
	if got, err := cl.Get(ctx, st.ID); err != nil || got.ShardsCompleted != 1 {
		t.Fatalf("campaign after the drain: %+v, %v; want exactly 1 shard completed", got, err)
	}
	want := api.WorkerStatus{ID: "draining", Shard: -1, ShardsDone: 1, Final: true}
	for _, campaign := range []string{"", st.ID} {
		fleet := s.Fleet(campaign)
		if len(fleet) != 1 {
			t.Fatalf("fleet view %q after drain: %+v, want one worker", campaign, fleet)
		}
		fleet[0].LagSeconds = 0
		if fleet[0] != want {
			t.Fatalf("fleet view %q after drain: %+v, want %+v", campaign, fleet[0], want)
		}
	}
	if fs := s.FleetSnapshot(); fs.RunsDone != 2 {
		t.Fatalf("fleet snapshot RunsDone = %d, want 2 (the drained worker's one shard)", fs.RunsDone)
	}
	// The final word is frozen: a piggybacked snapshot arriving after it
	// (an in-flight completion) does not replace it.
	s.Complete(api.CompleteRequest{WorkerID: "draining", CampaignID: st.ID, ShardID: -1, Snapshot: &telemetry.Snapshot{RunsDone: 99}})
	if fs := s.FleetSnapshot(); fs.RunsDone != 2 {
		t.Fatalf("fleet snapshot RunsDone = %d after a post-final piggyback, want 2", fs.RunsDone)
	}

	// The campaign is not stranded: a successor finishes the rest.
	stop := startWorker(t, srv.URL, "successor")
	defer stop()
	if final, err := cl.Wait(ctx, st.ID, 10*time.Millisecond); err != nil || final.State != api.StateDone {
		t.Fatalf("campaign: %+v, %v", final, err)
	}
}

// TestFleetSnapshotCountsEarlyStops: the early-stop counters exist only
// in a campaign's merged collector — a worker never sees a stopped run —
// and the fleet-wide snapshot overlays them onto the worker sum.
func TestFleetSnapshotCountsEarlyStops(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns:      []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections:     60,
		Seed:           7,
		StopMargin:     0.25,
		StopConfidence: 0.99,
		StopCheckEvery: 25,
	}
	s := newService(t, t.TempDir(), func(o *svc.Options) { o.ShardSize = 10 })
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ctx := context.Background()
	cl := client.New(srv.URL)
	st, err := cl.Submit(ctx, api.SubmitRequest{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	wctx, stop := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		done <- dist.RunWorker(wctx, srv.URL, dist.WorkerOptions{
			ID: "w0", Resolve: cli.Resolve, Telemetry: telemetry.New(), Poll: 20 * time.Millisecond,
		})
	}()
	final, err := cl.Wait(ctx, st.ID, 10*time.Millisecond)
	stop()
	<-done
	if err != nil || final.State != api.StateDone || final.ShardsCancelled == 0 {
		t.Fatalf("campaign: %+v, %v; want done with cancelled shards", final, err)
	}
	fleet := s.FleetSnapshot()
	if fleet.CellsStoppedEarly != 1 || fleet.StoppedRuns != 35 {
		t.Fatalf("fleet snapshot counts %d stopped cells and %d stopped runs, want 1 and 35", fleet.CellsStoppedEarly, fleet.StoppedRuns)
	}
	if fleet.RunsDone < 25 {
		t.Fatalf("fleet snapshot counts %d worker runs, want the 25 before the stop at least", fleet.RunsDone)
	}
}
