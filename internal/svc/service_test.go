package svc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/svc"
	"repro/internal/svc/api"
	"repro/internal/svc/client"
	"repro/internal/telemetry"
)

// newService builds a service over fresh spool/logs/index directories
// rooted at dir.
func newService(t *testing.T, dir string, mut func(*svc.Options)) *svc.Service {
	t.Helper()
	logs, err := core.NewLogsRepo(filepath.Join(dir, "logs"))
	if err != nil {
		t.Fatal(err)
	}
	spool, err := svc.OpenSpool(filepath.Join(dir, "spool"))
	if err != nil {
		t.Fatal(err)
	}
	index, err := fault.NewResultIndex(filepath.Join(dir, "index"))
	if err != nil {
		t.Fatal(err)
	}
	opt := svc.Options{
		Logs:      logs,
		Spool:     spool,
		Index:     index,
		Resolve:   cli.Resolve,
		ShardSize: 4,
		LeaseTTL:  10 * time.Second,
	}
	if mut != nil {
		mut(&opt)
	}
	s, err := svc.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// startWorker runs a fleet worker against the service URL until the
// returned stop function is called.
func startWorker(t *testing.T, url, id string) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- dist.RunWorker(ctx, url, dist.WorkerOptions{
			ID:      id,
			Resolve: cli.Resolve,
			Poll:    20 * time.Millisecond,
		})
	}()
	return func() {
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("worker %s: %v", id, err)
		}
	}
}

// singleNodeReference runs cfg through core.RunConfig and returns the
// per-key log bytes and the trace bytes — the semantics every service
// campaign must reproduce exactly.
func singleNodeReference(t *testing.T, cfg core.CampaignConfig) (map[string][]byte, []byte) {
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

// compareCampaignArtifacts reads the service-side logs and trace of a
// campaign and compares them byte-for-byte against the reference.
func compareCampaignArtifacts(t *testing.T, logsDir string, cfg core.CampaignConfig, wantLogs map[string][]byte, wantTrace []byte) {
	t.Helper()
	keys := cfg.Keys()
	for _, key := range keys {
		got, err := os.ReadFile(filepath.Join(logsDir, key+".log.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantLogs[key]) {
			t.Errorf("logs for %s differ from single-node reference (%d vs %d bytes)", key, len(got), len(wantLogs[key]))
		}
	}
	traceKey := "matrix"
	if len(keys) == 1 {
		traceKey = keys[0]
	}
	got, err := os.ReadFile(filepath.Join(logsDir, traceKey+".trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantTrace) {
		t.Errorf("trace differs from single-node reference (%d vs %d bytes)", len(got), len(wantTrace))
	}
}

func waitState(t *testing.T, cl *client.Client, id string, pred func(api.CampaignStatus) bool, what string) api.CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := cl.Get(context.Background(), id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never reached %s (state %s, %d/%d shards)", id, what, st.State, st.ShardsCompleted, st.Shards)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceTwoTenantsEndToEnd is the service acceptance differential:
// two tenants submit campaigns over /v1, one shared fleet worker (which
// joins late) runs them, one campaign is cancelled mid-run, and the
// completed one's logs and trace are byte-identical to a single-node
// RunConfig of the same config.
func TestServiceTwoTenantsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s := newService(t, dir, func(o *svc.Options) {
		o.Tenants = []svc.Tenant{
			{Name: "alice", Token: "tok-alice"},
			{Name: "bob", Token: "tok-bob"},
		}
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ctx := context.Background()

	clA := client.New(srv.URL, client.WithToken("tok-alice"))
	clB := client.New(srv.URL, client.WithToken("tok-bob"))

	// Unauthenticated and wrongly-authenticated requests get the
	// envelope, not data.
	var ae *api.Error
	if _, err := client.New(srv.URL).List(ctx); !errors.As(err, &ae) || ae.Code != api.CodeUnauthorized {
		t.Fatalf("tokenless list: got %v, want unauthorized", err)
	}
	if _, err := client.New(srv.URL, client.WithToken("bogus")).List(ctx); !errors.As(err, &ae) || ae.Code != api.CodeUnauthorized {
		t.Fatalf("bogus-token list: got %v, want unauthorized", err)
	}

	cfgA := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 12,
		Seed:       7,
	}
	cfgB := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "lsq.data"}},
		Injections: 60,
		Seed:       9,
	}
	stA, err := clA.Submit(ctx, api.SubmitRequest{Name: "alice-run", Options: api.SubmitOptions{Trace: true}, Config: cfgA})
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	stB, err := clB.Submit(ctx, api.SubmitRequest{Name: "bob-run", Config: cfgB})
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}
	if stA.ID == stB.ID {
		t.Fatalf("both campaigns got ID %s", stA.ID)
	}

	// Tenant isolation: bob cannot see (or cancel) alice's campaign.
	if _, err := clB.Get(ctx, stA.ID); !errors.As(err, &ae) || ae.Code != api.CodeNotFound {
		t.Fatalf("cross-tenant get: got %v, want not_found", err)
	}
	if _, err := clB.Cancel(ctx, stA.ID); !errors.As(err, &ae) || ae.Code != api.CodeNotFound {
		t.Fatalf("cross-tenant cancel: got %v, want not_found", err)
	}

	// The worker joins after both submissions.
	stop := startWorker(t, srv.URL, "late-worker")
	defer stop()

	final, err := clA.Wait(ctx, stA.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait A: %v", err)
	}
	if final.State != api.StateDone {
		t.Fatalf("campaign A finished %s (%s), want done", final.State, final.Error)
	}

	// Cancel B once it is demonstrably mid-run, then verify its leases
	// are released: the campaign goes terminal with cancelled shards and
	// a fresh lease finds no work in it.
	waitState(t, clB, stB.ID, func(st api.CampaignStatus) bool {
		return st.State == api.StateRunning && st.ShardsCompleted >= 1
	}, "running with a completed shard")
	if _, err := clB.Cancel(ctx, stB.ID); err != nil {
		t.Fatalf("cancel B: %v", err)
	}
	finalB, err := clB.Wait(ctx, stB.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait B: %v", err)
	}
	if finalB.State != api.StateCancelled {
		t.Fatalf("campaign B finished %s, want cancelled", finalB.State)
	}
	if finalB.ShardsCancelled == 0 {
		t.Fatalf("cancelled campaign retired no shards: %+v", finalB)
	}
	if lease := s.Lease("probe-worker"); lease.Status != api.StatusWait {
		t.Fatalf("lease after cancel: %s (campaign %s), want wait", lease.Status, lease.CampaignID)
	}

	// Byte-identity for the completed campaign.
	wantLogs, wantTrace := singleNodeReference(t, cfgA)
	compareCampaignArtifacts(t, filepath.Join(dir, "logs", stA.ID), cfgA, wantLogs, wantTrace)

	// Results are served from the index, with sane aggregates.
	res, err := clA.Results(ctx, stA.ID)
	if err != nil {
		t.Fatalf("results A: %v", err)
	}
	if len(res.Cells) != 1 || res.Cells[0].Runs != cfgA.Injections {
		t.Fatalf("results A: %+v, want 1 cell with %d runs", res.Cells, cfgA.Injections)
	}
	total := 0.0
	for _, share := range res.Cells[0].Shares {
		total += share
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("outcome shares sum to %f, want 1", total)
	}
	// The cancelled campaign has no index entry.
	if _, err := clB.Results(ctx, stB.ID); !errors.As(err, &ae) || ae.Code != api.CodeNotFound {
		t.Fatalf("results for cancelled campaign: got %v, want not_found", err)
	}
}

// TestServiceQuotasAndPriorities exercises the scheduler without any
// workers: per-tenant concurrency holds a second campaign in the
// queue until the first leaves, and the per-tenant open-campaign cap
// rejects further submissions with quota_exceeded.
func TestServiceQuotasAndPriorities(t *testing.T) {
	dir := t.TempDir()
	s := newService(t, dir, func(o *svc.Options) {
		o.Tenants = []svc.Tenant{{Name: "bob", Token: "tok-bob", MaxActive: 1}}
		o.MaxQueuedPerTenant = 2
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ctx := context.Background()
	cl := client.New(srv.URL, client.WithToken("tok-bob"))

	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 10,
		Seed:       3,
	}
	st1, err := cl.Submit(ctx, api.SubmitRequest{Name: "first", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := cl.Submit(ctx, api.SubmitRequest{Name: "second", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var ae *api.Error
	if _, err := cl.Submit(ctx, api.SubmitRequest{Name: "third", Config: cfg}); !errors.As(err, &ae) || ae.Code != api.CodeQuotaExceeded {
		t.Fatalf("third submit: got %v, want quota_exceeded", err)
	}

	// The first campaign occupies bob's single slot; the second stays
	// queued even though the service-wide limit has room.
	waitState(t, cl, st1.ID, func(st api.CampaignStatus) bool { return st.State == api.StateRunning }, "running")
	if st, _ := cl.Get(ctx, st2.ID); st.State != api.StateQueued {
		t.Fatalf("second campaign is %s, want queued behind the quota", st.State)
	}
	if _, err := cl.Cancel(ctx, st1.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, st1.ID, func(st api.CampaignStatus) bool { return st.State == api.StateCancelled }, "cancelled")
	// The freed slot starts the queued campaign.
	waitState(t, cl, st2.ID, func(st api.CampaignStatus) bool { return st.State != api.StateQueued }, "scheduled")
	if _, err := cl.Cancel(ctx, st2.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, cl, st2.ID, func(st api.CampaignStatus) bool { return api.TerminalState(st.State) }, "terminal")
}

// TestServiceRestartResume is the durability acceptance: a journaling
// campaign interrupted by a daemon "crash" (service abandoned mid-run)
// is re-enqueued by a new service on the same spool, resumes from the
// journal without duplicating or losing runs, and its final logs and
// trace are byte-identical to an uninterrupted single-node run.
func TestServiceRestartResume(t *testing.T) {
	dir := t.TempDir()
	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 40,
		Seed:       3,
	}
	ctx := context.Background()

	s1 := newService(t, dir, nil)
	srv1 := httptest.NewServer(s1.Handler())
	cl1 := client.New(srv1.URL)
	st, err := cl1.Submit(ctx, api.SubmitRequest{
		Name:    "durable",
		Options: api.SubmitOptions{Trace: true, Journal: true},
		Config:  cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop1 := startWorker(t, srv1.URL, "w1")
	waitState(t, cl1, st.ID, func(s api.CampaignStatus) bool {
		return s.ShardsCompleted >= 2 && !api.TerminalState(s.State)
	}, "mid-run with merged shards")
	// "Crash": stop the worker and the HTTP plane, then shut the
	// service down. Close leaves the running campaign's spool entry
	// live — exactly what a SIGKILL would have left behind.
	stop1()
	srv1.Close()
	s1.Close()

	s2 := newService(t, dir, nil)
	defer s2.Close()
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	cl2 := client.New(srv2.URL)

	got, err := cl2.Get(ctx, st.ID)
	if err != nil {
		t.Fatalf("restarted service lost campaign %s: %v", st.ID, err)
	}
	if !got.Resumed {
		t.Fatalf("restored campaign not marked resumed: %+v", got)
	}
	stop2 := startWorker(t, srv2.URL, "w2")
	defer stop2()
	final, err := cl2.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateDone {
		t.Fatalf("resumed campaign finished %s (%s), want done", final.State, final.Error)
	}

	wantLogs, wantTrace := singleNodeReference(t, cfg)
	compareCampaignArtifacts(t, filepath.Join(dir, "logs", st.ID), cfg, wantLogs, wantTrace)
}

// getEnvelope GETs a path and decodes the error envelope it answers.
func getEnvelope(t *testing.T, url string) (int, api.ErrorDetail) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("GET %s: status %d, body is not an error envelope: %v", url, resp.StatusCode, err)
	}
	return resp.StatusCode, env.Error
}

// TestServiceWorkerPlaneEnvelope pins the /v1 error contract workers
// depend on: unknown paths answer the not_found envelope — among them
// /v1/config, which a worker built before the single-campaign mode was
// removed still probes and reads as "this is a campaign service".
func TestServiceWorkerPlaneEnvelope(t *testing.T) {
	s := newService(t, t.TempDir(), nil)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cl := client.New(srv.URL, client.WithRetry(1, time.Millisecond))
	ctx := context.Background()

	// The unprefixed observability aliases of PR 10 are unknown paths too.
	for _, path := range []string{"/v1/config", "/snapshot.json", "/metrics", "/fleet.json", "/events"} {
		if status, e := getEnvelope(t, srv.URL+path); status != http.StatusNotFound || e.Code != api.CodeNotFound {
			t.Fatalf("GET %s: status %d, envelope %+v; want the 404 not_found envelope", path, status, e)
		}
	}
	var ae *api.Error
	if _, err := cl.CampaignConfig(ctx, "nope"); !errors.As(err, &ae) || ae.Code != api.CodeNotFound {
		t.Fatalf("GET /v1/campaigns/nope/config: got %v, want not_found", err)
	}
	// With no campaigns submitted, leases wait (the fleet idles).
	lease, err := cl.Lease(ctx, "w0")
	if err != nil {
		t.Fatal(err)
	}
	if lease.Status != api.StatusWait {
		t.Fatalf("lease on empty service: %s, want wait", lease.Status)
	}
	if lease.WaitMS <= 0 {
		t.Fatalf("wait lease carries no backoff hint: %+v", lease)
	}
}

// TestFinishedCampaignReleasesItsLedger: a daemon serves campaigns for
// as long as it lives, so a finished campaign keeps only what its
// endpoints read. Its status still carries the final shard accounting
// and its snapshot the final run counts, but it holds no coordinator,
// and the worker plane answers late calls for it exactly as a restarted
// daemon — which has only the spool entry — does.
func TestFinishedCampaignReleasesItsLedger(t *testing.T) {
	dir := t.TempDir()
	s := newService(t, dir, nil)
	srv := httptest.NewServer(s.Handler())
	ctx := context.Background()
	cl := client.New(srv.URL)
	stop := startWorker(t, srv.URL, "w1")

	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 10,
		Seed:       7,
	}
	st, err := cl.Submit(ctx, api.SubmitRequest{Options: api.SubmitOptions{Trace: true}, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	// While the campaign is live the ledger exists and serves its config.
	waitState(t, cl, st.ID, func(st api.CampaignStatus) bool { return st.Shards > 0 }, "planned")
	final, err := cl.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil || final.State != api.StateDone {
		t.Fatalf("campaign finished %s (%s): %v", final.State, final.Error, err)
	}
	stop()

	if final.Shards != 3 || final.ShardsCompleted != 3 { // 10 masks in shards of 4
		t.Errorf("finished campaign reports %d of %d shards completed, want 3 of 3", final.ShardsCompleted, final.Shards)
	}
	snap, err := cl.Snapshot(ctx, st.ID)
	if err != nil {
		t.Fatalf("snapshot of a finished campaign: %v", err)
	}
	if snap.RunsDone != uint64(cfg.Injections) {
		t.Errorf("finished campaign's snapshot counts %d runs, want %d", snap.RunsDone, cfg.Injections)
	}
	if s.HoldsLedger(st.ID) {
		t.Error("the finished campaign still holds its coordinator")
	}

	// Late worker calls, against this daemon and against a restarted one.
	late := func(s *svc.Service) (hb api.HeartbeatResponse, done api.CompleteResponse, cfgErr error) {
		hb = s.Heartbeat(api.HeartbeatRequest{WorkerID: "w1", CampaignID: st.ID, ShardID: 0})
		done = s.Complete(api.CompleteRequest{WorkerID: "w1", CampaignID: st.ID, ShardID: 0})
		_, cfgErr = s.CampaignConfig(st.ID)
		return hb, done, cfgErr
	}
	hb, done, cfgErr := late(s)
	srv.Close()
	s.Close()
	restarted := newService(t, dir, nil)
	defer restarted.Close()
	wantHB, wantDone, wantCfgErr := late(restarted)
	if hb != wantHB || done != wantDone || cfgErr == nil || cfgErr.Error() != wantCfgErr.Error() {
		t.Errorf("late calls for a finished campaign: heartbeat %+v, complete %+v, config %v; a restarted daemon answers %+v, %+v, %v",
			hb, done, cfgErr, wantHB, wantDone, wantCfgErr)
	}
	if again, err := restarted.Get("", st.ID); err != nil || again.State != api.StateDone {
		t.Errorf("restarted daemon: campaign %s is %s (%v), want done", st.ID, again.State, err)
	}
}
