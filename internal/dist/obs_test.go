package dist_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/svc/api"
	"repro/internal/telemetry"
)

// drainOnComplete closes drain as the first completion arrives.
type drainOnComplete struct {
	plane
	once  sync.Once
	drain chan struct{}
}

func (d *drainOnComplete) Complete(r api.CompleteRequest) api.CompleteResponse {
	d.once.Do(func() { close(d.drain) })
	return d.plane.Complete(r)
}

// TestWorkerDrain closes the worker's drain channel mid-campaign (as
// its first shard completion arrives) and checks graceful shutdown from
// the ledger's side: the in-flight shard is delivered, the worker exits
// nil, and the remaining shards stay leasable for a successor. (What the
// fleet table shows of a drained worker is TestServiceWorkerDrain's, in
// internal/svc.)
func TestWorkerDrain(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 12,
		Seed:       11,
	}
	coord, err := dist.New(cfg, dist.CoordinatorOptions{ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// The shard in flight is already being delivered when drain fires, so
	// the worker must hand it over, post its final snapshot, and exit.
	drain := make(chan struct{})
	srv := serve(t, &drainOnComplete{plane: plane{"c": coord}, drain: drain})

	tel := telemetry.New()
	err = dist.RunWorker(context.Background(), srv.URL, dist.WorkerOptions{
		ID:        "draining",
		Resolve:   cli.Resolve,
		Golden:    core.NewGoldenCache(),
		Telemetry: tel,
		Drain:     drain,
	})
	if err != nil {
		t.Fatalf("draining worker: %v", err)
	}
	st := coord.Stats()
	if st.Completed != 1 {
		t.Fatalf("completed shards = %d, want exactly 1 (drain after the first)", st.Completed)
	}
	if got := tel.Snapshot().RunsDone; got != 2 {
		t.Fatalf("drained worker's snapshot has %d runs, want 2 (its one shard)", got)
	}

	// The campaign is not stranded: a successor finishes the rest.
	errs := make(chan error, 1)
	go func() {
		errs <- dist.RunWorker(context.Background(), srv.URL, dist.WorkerOptions{
			ID: "successor", Resolve: cli.Resolve, Golden: core.NewGoldenCache(),
		})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("successor: %v", err)
	}
	if got := len(results[0].Records); got != 12 {
		t.Fatalf("merged %d records, want 12", got)
	}
}

// TestDistributedSpanTree runs a traced distributed campaign and checks
// the coordinator-side span tree is complete and well-parented: one
// campaign root, every shard span a child of it with a sibling "merge"
// phase, and the workers' forwarded run spans parented under their
// shard spans with the coordinator's trace ID throughout.
func TestDistributedSpanTree(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 6,
		Seed:       5,
	}
	tracer := telemetry.NewTracer("trace-test", "c")
	buf := telemetry.NewSpanBuffer()
	tracer.AddSink(buf)
	coord, err := dist.New(cfg, dist.CoordinatorOptions{ShardSize: 3, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := serve(t, plane{"c": coord})

	errs := make(chan error, 1)
	go func() {
		errs <- dist.RunWorker(context.Background(), srv.URL, dist.WorkerOptions{
			ID: "w0", Resolve: cli.Resolve, Golden: core.NewGoldenCache(),
		})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("worker: %v", err)
	}

	spans := buf.Spans()
	byID := map[string]telemetry.Span{}
	var campaignID string
	shardSpans := map[string]bool{}
	runs, merges := 0, 0
	for _, sp := range spans {
		if sp.TraceID != "trace-test" {
			t.Fatalf("span %s has trace id %q, want trace-test", sp.SpanID, sp.TraceID)
		}
		byID[sp.SpanID] = sp
		switch sp.Kind {
		case telemetry.SpanCampaign:
			if sp.Name == "campaign" {
				if campaignID != "" {
					t.Fatal("two campaign root spans")
				}
				campaignID = sp.SpanID
			}
		case telemetry.SpanShard:
			shardSpans[sp.SpanID] = true
		case telemetry.SpanRun:
			runs++
		case telemetry.SpanPhase:
			if sp.Name == "merge" {
				merges++
			}
		}
	}
	if campaignID == "" {
		t.Fatal("no campaign root span")
	}
	if len(shardSpans) != 2 || merges != 2 {
		t.Fatalf("got %d shard spans and %d merge phases, want 2 and 2", len(shardSpans), merges)
	}
	if runs != cfg.Injections {
		t.Fatalf("got %d run spans, want %d", runs, cfg.Injections)
	}
	for _, sp := range spans {
		switch sp.Kind {
		case telemetry.SpanShard:
			if sp.ParentID != campaignID {
				t.Fatalf("shard span %s parented under %q, want the campaign root", sp.SpanID, sp.ParentID)
			}
			if sp.Worker != "w0" {
				t.Fatalf("shard span %s lacks the executing worker: %+v", sp.SpanID, sp)
			}
		case telemetry.SpanPhase:
			if sp.Name == "merge" && !shardSpans[sp.ParentID] {
				t.Fatalf("merge phase parented under %q, want a shard span", sp.ParentID)
			}
		}
	}
	// The worker's matrix span hangs under a pre-minted shard span; its
	// run spans hang under cell spans below it. Walk each run span up
	// and require the path to reach the campaign root.
	rootOf := func(sp telemetry.Span) string {
		for depth := 0; depth < 10; depth++ {
			if sp.ParentID == "" {
				return sp.SpanID
			}
			parent, ok := byID[sp.ParentID]
			if !ok {
				// Pre-minted shard IDs resolve once the shard span is
				// emitted; any other dangling parent is a broken tree.
				if shardSpans[sp.ParentID] {
					return campaignID
				}
				t.Fatalf("span %s has unknown parent %q", sp.SpanID, sp.ParentID)
			}
			sp = parent
		}
		t.Fatalf("span tree deeper than 10 at %s", sp.SpanID)
		return ""
	}
	for _, sp := range spans {
		if sp.Kind == telemetry.SpanRun {
			if got := rootOf(sp); got != campaignID {
				t.Fatalf("run span %s roots at %q, want the campaign root", sp.SpanID, got)
			}
		}
	}
}
