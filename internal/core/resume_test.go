package core_test

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/divergence"
	"repro/internal/fault"
)

// TestResumedDivergenceRowsAreTheRunsRows resumes a single-node campaign
// over the first half of its journal: every divergence row must equal
// the uninterrupted run's, footprint and commit-stream verdict included,
// except that the rows replayed from the journal are flagged resumed.
func TestResumedDivergenceRowsAreTheRunsRows(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 40,
		Seed:       3,
		Workers:    2,
		Divergence: true,
	}
	cache := core.NewGoldenCache()
	path := t.TempDir() + "/cell.journal.jsonl"
	j, err := fault.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunConfig(cfg, simsResolver(t), core.Attach{Golden: cache, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	kept := lines[:len(lines)/2]
	if err := os.WriteFile(path, []byte(strings.Join(kept, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err = fault.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	journaled := map[int]bool{}
	footprints := 0
	for _, e := range j.Entries() {
		journaled[e.MaskID] = true
		if e.FaultTouches > 0 {
			footprints++
		}
	}
	if footprints == 0 {
		t.Fatalf("none of the %d journaled runs touched its fault; the cut shows nothing", len(journaled))
	}
	got, err := core.RunConfig(cfg, simsResolver(t), core.Attach{Golden: cache, Journal: j, Resume: true})
	if err != nil {
		t.Fatal(err)
	}

	wantRows, gotRows := core.DivergenceRows(want), core.DivergenceRows(got)
	if len(gotRows) != len(wantRows) {
		t.Fatalf("resume wrote %d divergence rows, the run %d", len(gotRows), len(wantRows))
	}
	byMask := map[int]divergence.Record{}
	for _, d := range gotRows {
		byMask[d.MaskID] = d
	}
	for _, d := range wantRows {
		d.Resumed = journaled[d.MaskID]
		if g := byMask[d.MaskID]; !reflect.DeepEqual(g, d) {
			t.Errorf("mask %d: resumed row\n %+v\nwant\n %+v", d.MaskID, g, d)
		}
	}
}
