package core_test

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/sims"
	"repro/internal/telemetry"
)

// runWithDivergence runs cfg, which measures divergence, and returns
// the provenance bytes its divergence file holds plus the campaign
// results.
func runWithDivergence(t *testing.T, cfg core.CampaignConfig) ([]byte, []*core.CampaignResult) {
	t.Helper()
	results, err := core.RunConfig(cfg, simsResolver(t), core.Attach{Golden: core.NewGoldenCache()})
	if err != nil {
		t.Fatal(err)
	}
	return divergenceBytes(t, results), results
}

// divergenceBytes is the divergence file the results' rows make.
func divergenceBytes(t *testing.T, results []*core.CampaignResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := divergence.WriteRecords(&buf, core.DivergenceRows(results)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDivergenceByteStability is the worker-count independence proof of
// the provenance file: the same campaign simulated on 1 and 4 workers
// must flush byte-identical divergence JSONL — every field is a
// deterministic function of the plan and the machines, not of
// scheduling. Run under -race this is also the recorder's thread-safety
// check.
func TestDivergenceByteStability(t *testing.T) {
	base := core.CampaignConfig{
		Campaigns: []core.CampaignCell{
			{Tool: sims.GeFINX86, Benchmark: "qsort", Structure: "rf.int"},
		},
		Injections: 16,
		Seed:       42, // this seed's mask population includes diverging runs

		Divergence: true,
	}
	ref := base
	ref.Workers = 1
	want, wantRes := runWithDivergence(t, ref)

	wide := base
	wide.Workers = 4
	got, _ := runWithDivergence(t, wide)
	if !bytes.Equal(want, got) {
		t.Fatalf("divergence bytes depend on worker count\n--- workers=1\n%s--- workers=4\n%s", want, got)
	}

	recs, err := divergence.ReadRecords(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != base.Injections {
		t.Fatalf("got %d divergence records, want %d (one per injection)", len(recs), base.Injections)
	}
	for i, rec := range recs {
		if rec.MaskID != i {
			t.Fatalf("record %d has mask id %d (order lost)", i, rec.MaskID)
		}
		if rec.SchemaVersion != divergence.SchemaVersion {
			t.Fatalf("record %d carries schema version %d", i, rec.SchemaVersion)
		}
	}

	// Consistency with the log records: same classes, and an SDC or DUE
	// from a consumed fault must be explainable — the paper's premise is
	// that non-masked outcomes follow fault consumption.
	byMask := map[int]divergence.Record{}
	for _, rec := range recs {
		byMask[rec.MaskID] = rec
	}
	diverged := 0
	for _, lr := range wantRes[0].Records {
		rec, ok := byMask[lr.MaskID]
		if !ok {
			t.Fatalf("log record %d has no divergence record", lr.MaskID)
		}
		if cls, _ := (core.Parser{}).Classify(lr); rec.Class != string(cls) {
			t.Fatalf("mask %d: divergence class %q != parsed class %q", lr.MaskID, rec.Class, cls)
		}
		if rec.Diverged {
			diverged++
			if !rec.Observed {
				t.Fatalf("mask %d diverged without the fault ever being consumed: %+v", lr.MaskID, rec)
			}
			if rec.DivergeCycle < rec.FirstObsCycle {
				t.Fatalf("mask %d diverged before first consumption: %+v", lr.MaskID, rec)
			}
			if rec.PropagationCycles != rec.DivergeCycle-rec.FirstObsCycle {
				t.Fatalf("mask %d propagation depth inconsistent: %+v", lr.MaskID, rec)
			}
		}
	}
	if diverged == 0 {
		t.Fatal("no run diverged: the probe saw nothing (seed too tame or probe dead)")
	}
}

// TestDivergenceWithPruneAndLadder checks the recorder composes with
// the scheduler's accelerations: pruned rows appear as unsimulated
// provenance stubs, simulated rows keep their measurements, and the
// file stays worker-count independent.
func TestDivergenceWithPruneAndLadder(t *testing.T) {
	base := core.CampaignConfig{
		Campaigns: []core.CampaignCell{
			{Tool: sims.GeFINX86, Benchmark: "qsort", Structure: "rf.int"},
		},
		Injections: 12,
		Seed:       9,
		Divergence: true,
		Prune:      true, CheckpointLadder: 2,
	}
	ref := base
	ref.Workers = 1
	want, _ := runWithDivergence(t, ref)
	wide := base
	wide.Workers = 4
	got, _ := runWithDivergence(t, wide)
	if !bytes.Equal(want, got) {
		t.Fatalf("pruned divergence bytes depend on worker count\n--- workers=1\n%s--- workers=4\n%s", want, got)
	}

	recs, err := divergence.ReadRecords(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != base.Injections {
		t.Fatalf("got %d records, want %d", len(recs), base.Injections)
	}
	pruned := 0
	for _, rec := range recs {
		if rec.Pruned != "" {
			pruned++
			if rec.Observed || rec.Diverged || rec.FaultTouches != 0 {
				t.Fatalf("pruned row carries simulated measurements: %+v", rec)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("prune settled nothing; the stub path is untested (pick another seed)")
	}
}

// TestDivergenceWithNothingAttached: a config that measures divergence
// returns one row per mask with its provenance even when nothing else
// is attached — no journal, no telemetry, no logs.
func TestDivergenceWithNothingAttached(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: sims.GeFINX86, Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 16,
		Seed:       42,
		Divergence: true,
	}
	results, err := core.RunConfig(cfg, simsResolver(t), core.Attach{})
	if err != nil {
		t.Fatal(err)
	}
	rows := results[0].Divergence
	if len(rows) != cfg.Injections {
		t.Fatalf("%d divergence rows, want %d", len(rows), cfg.Injections)
	}
	observed, diverged := 0, 0
	for i, row := range rows {
		if row.Campaign != cfg.Keys()[0] || row.MaskID != results[0].Records[i].MaskID {
			t.Fatalf("row %d is %s mask %d, want the record's", i, row.Campaign, row.MaskID)
		}
		if row.Observed {
			observed++
		}
		if row.Diverged {
			diverged++
		}
	}
	if observed == 0 || diverged == 0 {
		t.Fatalf("%d observed and %d diverged rows: the runs were not probed", observed, diverged)
	}

	cfg.Divergence = false
	if results, err = core.RunConfig(cfg, simsResolver(t), core.Attach{}); err != nil || results[0].Divergence != nil {
		t.Fatalf("divergence off: rows %v, err %v; want none", results[0].Divergence, err)
	}
}

// TestDivergenceFileFollowsTheTraceOrder: a cell of explicit masks
// whose IDs run backwards holds its rows in mask-index order, and the
// divergence file it stores lists them in (campaign, mask ID) order,
// the order of its trace.
func TestDivergenceFileFollowsTheTraceOrder(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: sims.GeFINX86, Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 12,
		Seed:       42,
		Workers:    2,
		Divergence: true,
	}
	cache := core.NewGoldenCache()
	specs, err := cfg.BuildSpecs(simsResolver(t), cache)
	if err != nil {
		t.Fatal(err)
	}
	masks := specs[0].Masks
	for i := range masks {
		masks[i].ID = 100 + len(masks) - i
	}
	cfg.Campaigns[0].Masks = masks
	col := telemetry.New()
	trace := telemetry.NewTraceSink()
	col.AddSink(trace)
	results, err := core.RunConfig(cfg, simsResolver(t), core.Attach{Golden: cache, Telemetry: col})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range results[0].Divergence {
		if row.MaskID != masks[i].ID {
			t.Fatalf("row %d is mask %d, want mask-index order (mask %d)", i, row.MaskID, masks[i].ID)
		}
	}
	repo, err := core.NewLogsRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := cfg.Keys()[0]
	if err := repo.StoreCampaign(key, cfg.Keys(), results, trace, nil); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Open(repo.TracePath(key))
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	traced, err := fault.ReadTrace(tf)
	if err != nil {
		t.Fatal(err)
	}
	df, err := os.Open(repo.DivergencePath(key))
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	rows, err := divergence.ReadRecords(df)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(traced) || len(rows) != len(masks) {
		t.Fatalf("%d divergence rows, %d trace rows, %d masks", len(rows), len(traced), len(masks))
	}
	for i := range rows {
		if rows[i].Campaign != traced[i].Campaign || rows[i].MaskID != traced[i].MaskID {
			t.Fatalf("line %d: divergence row %s mask %d, trace row %s mask %d",
				i, rows[i].Campaign, rows[i].MaskID, traced[i].Campaign, traced[i].MaskID)
		}
	}
	if rows[0].MaskID != masks[len(masks)-1].ID {
		t.Fatalf("the file starts at mask %d, not at the lowest ID %d", rows[0].MaskID, masks[len(masks)-1].ID)
	}
}

// TestDivergenceRowsByteStable: the divergence file does not depend on
// the order of the cells or of their rows — the worker-count
// independence the distributed differential relies on.
func TestDivergenceRowsByteStable(t *testing.T) {
	mk := func(camp string, id int) divergence.Record {
		return divergence.Record{Campaign: camp, MaskID: id, Status: "completed", Class: "Masked", Cycles: uint64(100 + id)}
	}
	cell := func(camp string, reversed bool) *core.CampaignResult {
		res := &core.CampaignResult{}
		for id := 0; id < 40; id++ {
			if reversed {
				res.Divergence = append(res.Divergence, mk(camp, 39-id))
			} else {
				res.Divergence = append(res.Divergence, mk(camp, id))
			}
		}
		return res
	}
	var want, got bytes.Buffer
	if err := divergence.WriteRecords(&want, core.DivergenceRows([]*core.CampaignResult{cell("a", false), cell("b", false)})); err != nil {
		t.Fatal(err)
	}
	if err := divergence.WriteRecords(&got, core.DivergenceRows([]*core.CampaignResult{cell("b", true), cell("a", true)})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("divergence bytes depend on cell and row order")
	}
	if n := bytes.Count(got.Bytes(), []byte("\n")); n != 80 {
		t.Fatalf("%d rows written, want 80", n)
	}
}
