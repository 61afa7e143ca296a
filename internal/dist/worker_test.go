package dist_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/svc/api"
)

// TestWorkerHasOneMode: a worker never asks a server which kind it is.
// It runs a campaign to the end without one GET /v1/config (the probe
// that used to pick between "single-campaign" and "fleet" mode), and a
// shard lease that names no campaign ends it with ErrNoCampaign — there
// is no campaign-less mode for it to fall back into.
func TestWorkerHasOneMode(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 4,
		Seed:       2,
	}
	coord, err := dist.New(cfg, dist.CoordinatorOptions{ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	inner := serve(t, plane{"c": coord}).Config.Handler
	var mu sync.Mutex
	seen := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+r.URL.Path]++
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	err = dist.RunWorker(context.Background(), srv.URL, dist.WorkerOptions{
		ID: "w0", Resolve: cli.Resolve, Golden: core.NewGoldenCache(),
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	if st := coord.Stats(); st.Completed != st.Shards {
		t.Fatalf("%d of %d shards completed", st.Completed, st.Shards)
	}
	if n := seen["GET /v1/config"]; n != 0 {
		t.Fatalf("worker probed GET /v1/config %d times; requests seen: %v", n, seen)
	}
	if n := seen["GET /v1/campaigns/c/config"]; n != 1 {
		t.Fatalf("worker fetched the campaign config %d times, want once; requests seen: %v", n, seen)
	}

	nameless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, api.LeaseResponse{Status: api.StatusShard, Shard: &api.Shard{MaskHi: 2}})
	}))
	defer nameless.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = dist.RunWorker(ctx, nameless.URL, dist.WorkerOptions{ID: "w0", Resolve: cli.Resolve})
	if !errors.Is(err, dist.ErrNoCampaign) {
		t.Fatalf("worker handed a shard without a campaign id: got %v, want ErrNoCampaign", err)
	}
}

// TestWorkerOutlivesACampaignFailure: campaign "a" fails
// deterministically on this worker (its benchmark does not resolve
// here), campaign "b" does not, and the one worker serving both goes on
// to finish "b" — a campaign's failure is its own terminal state.
func TestWorkerOutlivesACampaignFailure(t *testing.T) {
	cell := func(bench string) core.CampaignConfig {
		return core.CampaignConfig{
			Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: bench, Structure: "rf.int"}},
			Injections: 4,
			Seed:       2,
		}
	}
	a, err := dist.New(cell("sha"), dist.CoordinatorOptions{ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := dist.New(cell("qsort"), dist.CoordinatorOptions{ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	srv := serve(t, plane{"a": a, "b": b})

	noSHA := func(tool, benchmark string) (core.Factory, error) {
		if benchmark == "sha" {
			return nil, fmt.Errorf("no %s on this host", benchmark)
		}
		return cli.Resolve(tool, benchmark)
	}
	err = dist.RunWorker(context.Background(), srv.URL, dist.WorkerOptions{
		ID: "w0", Resolve: noSHA, Golden: core.NewGoldenCache(),
	})
	if err != nil {
		t.Fatalf("worker ended with campaign a's failure: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := a.Wait(ctx); err == nil {
		t.Fatal("campaign a succeeded despite a deterministic shard failure")
	}
	results, err := b.Wait(ctx)
	if err != nil {
		t.Fatalf("campaign b: %v", err)
	}
	if got := len(results[0].Records); got != 4 {
		t.Fatalf("campaign b merged %d records, want 4", got)
	}
}
