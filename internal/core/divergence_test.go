package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/divergence"
	"repro/internal/sims"
)

// runWithDivergence runs cfg with a divergence sink attached and
// returns the flushed provenance bytes plus the campaign results.
func runWithDivergence(t *testing.T, cfg core.CampaignConfig) ([]byte, []*core.CampaignResult) {
	t.Helper()
	sink := divergence.NewSink()
	results, err := core.RunConfig(cfg, simsResolver(t), core.Attach{
		Golden: core.NewGoldenCache(), Divergence: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sink.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), results
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
