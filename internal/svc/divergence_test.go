package svc_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/svc"
	"repro/internal/svc/api"
	"repro/internal/svc/client"
)

// TestServiceDivergenceIsTheSingleNodeRows runs a two-cell campaign
// that measures divergence on a service with two workers. Its
// matrix.divergence.jsonl must be the file the single-node run's rows
// make, and the result index's per-cell divergence summaries are
// pinned: the index reads each cell's rows from its result.
func TestServiceDivergenceIsTheSingleNodeRows(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns: []core.CampaignCell{
			{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"},
			{Tool: "mafin-x86", Benchmark: "sha", Structure: "rf.int"},
		},
		Injections: 16,
		Seed:       42,
		Prune:      true,
		Divergence: true,
	}
	dir := t.TempDir()
	s := newService(t, dir, func(o *svc.Options) {
		o.ShardSize = 5
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
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			errs <- dist.RunWorker(ctx, srv.URL, dist.WorkerOptions{
				ID: fmt.Sprintf("w%d", w), Resolve: cli.Resolve, Golden: core.NewGoldenCache(), Poll: 20 * time.Millisecond,
			})
		}(w)
	}
	final, err := cl.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil || final.State != api.StateDone {
		t.Fatalf("campaign: %+v, %v", final, err)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}

	results, err := core.RunConfig(cfg, cli.Resolve, core.Attach{Golden: core.NewGoldenCache()})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := divergence.WriteRecords(&want, core.DivergenceRows(results)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "logs", st.ID, "matrix.divergence.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("the service's divergence file differs from the single-node rows\n--- service\n%s--- single node\n%s", got, want.Bytes())
	}

	res, err := cl.Results(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var sums []fault.DivergenceIndexSummary
	for _, cell := range res.Cells {
		if cell.Divergence == nil {
			t.Fatalf("cell %s has no divergence summary", cell.Key)
		}
		sums = append(sums, *cell.Divergence)
	}
	pinned := []fault.DivergenceIndexSummary{
		{Records: 16, Diverged: 2, MeanPropagationCycles: 1855, MeanTimeToOutcome: 50363},
		{Records: 16, MeanTimeToOutcome: 41145},
	}
	if !reflect.DeepEqual(sums, pinned) {
		t.Fatalf("divergence summaries %+v, want %+v", sums, pinned)
	}
}
