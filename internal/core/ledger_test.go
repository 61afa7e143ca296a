package core

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// ledgerMasks is a population of n masks with distinct IDs, sites and
// sampling weights, so a resolved replica shows whose identity it kept.
func ledgerMasks(n int) []fault.Mask {
	masks := make([]fault.Mask, n)
	for i := range masks {
		masks[i] = fault.Mask{
			ID:     100 + i,
			Sites:  []fault.Site{{Structure: "rf.int", Entry: i, Bit: i % 7, Cycle: uint64(10 * i)}},
			Weight: float64(i + 1),
		}
	}
	return masks
}

// settledRows is the divergence rows ledger l has built so far, in
// mask-index order.
func settledRows(l *CellLedger) []divergence.Record {
	var rows []divergence.Record
	for _, row := range l.rows {
		if row.Campaign != "" {
			rows = append(rows, row)
		}
	}
	return rows
}

// ledgerRun is the simulated outcome of mask index i with the given status.
func ledgerRun(masks []fault.Mask, i int, status RunStatus) ShardRun {
	m := masks[i]
	return ShardRun{Index: i, Record: LogRecord{
		MaskID: m.ID, Sites: m.Sites, Status: status.String(), Cycles: uint64(1000 + i), Weight: m.Weight,
	}}
}

// TestCellLedgerFirstSettleWins: a second settle of an index — a
// duplicate shard, an overlapping merge — changes neither the record
// nor what the sinks saw.
func TestCellLedgerFirstSettleWins(t *testing.T) {
	masks := ledgerMasks(2)
	l := NewCellLedger(CellSinks{Key: "k"}, 2, true)
	first := ledgerRun(masks, 0, RunCompleted)
	second := ledgerRun(masks, 0, RunProcessCrash)
	for _, run := range []ShardRun{first, second} {
		if err := l.Settle(run, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.records[0]; !reflect.DeepEqual(got, first.Record) {
		t.Fatalf("record after a second settle: %+v, want the first %+v", got, first.Record)
	}
	if rows := settledRows(l); len(rows) != 1 || rows[0].Status != first.Record.Status {
		t.Fatalf("divergence rows %+v: want one row, the first settle's", rows)
	}
}

// TestCellLedgerConcurrentSettle: the scheduler's workers settle
// distinct indices at once, with no lock in front of the sinks; run with
// -race.
func TestCellLedgerConcurrentSettle(t *testing.T) {
	const n = 64
	masks := ledgerMasks(n)
	l := NewCellLedger(CellSinks{Key: "k"}, n, true)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for m := w; m < n; m += 4 {
				if err := l.Settle(ledgerRun(masks, m, RunCompleted), true); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	res, err := l.Result(GoldenInfo{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for m, rec := range res.Records {
		if rec.MaskID != masks[m].ID || len(res.Divergence) != n || res.Divergence[m].MaskID != rec.MaskID {
			t.Fatalf("mask index %d: record %+v, %d divergence rows", m, rec, len(res.Divergence))
		}
	}
}

// TestCellLedgerResolvesAHeldStub: a replicated stub settled before its
// representative is held — nothing reaches a sink, and the result is an
// error naming both — until the representative settles; then it takes
// the representative's verdict under its own mask ID, sites and weight.
func TestCellLedgerResolvesAHeldStub(t *testing.T) {
	masks := ledgerMasks(3)
	l := NewCellLedger(CellSinks{Key: "k"}, 3, true)
	if err := l.Settle(replicated(0, masks[0], 2), false); err != nil {
		t.Fatal(err)
	}
	if err := l.Settle(ledgerRun(masks, 1, RunCompleted), false); err != nil {
		t.Fatal(err)
	}
	if l.slots[0] != slotHeld || len(settledRows(l)) != 1 {
		t.Fatalf("held stub: settled %v, %d divergence rows; want held and only mask index 1's row", l.slots[0] == slotHeld, len(settledRows(l)))
	}
	if _, err := l.Result(GoldenInfo{}, nil); err == nil || !strings.Contains(err.Error(), "k mask index 0 never settled") {
		t.Fatalf("result with a held stub: %v", err)
	}

	rep := ledgerRun(masks, 2, RunSystemCrash)
	if err := l.Settle(rep, false); err != nil {
		t.Fatal(err)
	}
	want := rep.Record
	want.MaskID, want.Sites, want.Weight = masks[0].ID, masks[0].Sites, masks[0].Weight
	if got := l.records[0]; !reflect.DeepEqual(got, want) {
		t.Fatalf("resolved stub record %+v, want %+v", got, want)
	}
	rows := settledRows(l)
	if len(rows) != 3 || rows[0].MaskID != masks[0].ID || rows[0].Pruned != "replicated" || rows[0].Status != rep.Record.Status {
		t.Fatalf("divergence rows after resolution: %+v", rows)
	}
	res, err := l.Result(GoldenInfo{Cycles: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Golden.Cycles != 7 || len(res.Records) != 3 || res.Adaptive != nil {
		t.Fatalf("result %+v", res)
	}
}

// TestCellLedgerStoppedTail: a stopped cell's cancelled tail settles as
// stopped-early rows — except rows already settled, which keep their
// outcome, and journaled stop rows, which settle flagged Resumed and are
// not journaled again — and the stop is reported once.
func TestCellLedgerStoppedTail(t *testing.T) {
	const n = 40
	masks := ledgerMasks(n)
	sim := make([]int, n)
	for i := range sim {
		sim[i] = i
	}
	rule, err := newStopRule(CampaignConfig{StopMargin: 0.25, StopConfidence: 0.99, StopCheckEvery: 10}, sim)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := fault.OpenJournal(filepath.Join(t.TempDir(), "j.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	tel := telemetry.New()
	sinks := CellSinks{Key: "k", Journal: jnl, Telemetry: tel, Row: tel.Campaign("k", "t", "b", "s")}
	l := NewCellLedger(sinks, n, true)

	if err := l.SettleStopped(rule, masks); err != nil || len(settledRows(l)) != 0 {
		t.Fatalf("a rule that has not stopped settled %d rows (%v)", len(settledRows(l)), err)
	}
	for m := 0; m < 10; m++ {
		if err := l.Settle(ledgerRun(masks, m, RunCompleted), false); err != nil {
			t.Fatal(err)
		}
		rule.Note(m, string(ClassMasked))
	}
	if !rule.Stopped() || !rule.Cancelled(10) || rule.Cancelled(9) {
		t.Fatalf("rule did not stop after mask index 9: %+v", rule.Info())
	}
	kept := ledgerRun(masks, 15, RunProcessCrash)
	if err := l.Settle(kept, false); err != nil {
		t.Fatal(err)
	}
	journaled := StoppedRun(20, masks[20])
	journaled.Resumed = true
	l.Journaled(journaled)
	if l.slots[20] != slotJournaled || !l.Known(20) {
		t.Fatal("a journaled stop row must be known but not settled before the stop settles it")
	}
	for range 2 {
		if err := l.SettleStopped(rule, masks); err != nil {
			t.Fatal(err)
		}
	}

	if got := l.records[15]; !reflect.DeepEqual(got, kept.Record) {
		t.Fatalf("settled row past the cutoff was overwritten: %+v", got)
	}
	for m := 10; m < n; m++ {
		if m != 15 && l.records[m].Status != RunStopped.String() {
			t.Fatalf("mask index %d: status %q, want %q", m, l.records[m].Status, RunStopped)
		}
	}
	if got := l.records[30]; got.MaskID != masks[30].ID || !reflect.DeepEqual(got.Sites, masks[30].Sites) || got.Weight != masks[30].Weight {
		t.Fatalf("stopped row lost its mask's identity: %+v", got)
	}
	for _, row := range settledRows(l) {
		if want := row.MaskID == masks[20].ID; row.Resumed != want {
			t.Fatalf("divergence row of mask %d resumed=%v, want %v", row.MaskID, row.Resumed, want)
		}
	}
	entries, err := fault.ReadJournalFile(jnl.Path())
	if err != nil {
		t.Fatal(err)
	}
	stopped := 0
	for _, e := range entries {
		if e.MaskID == masks[20].ID {
			t.Fatal("the journaled stop row was journaled again")
		}
		if e.StoppedEarly {
			stopped++
		}
	}
	if want := n - 10 - 2; stopped != want {
		t.Fatalf("journal has %d stopped-early lines, want %d", stopped, want)
	}
	if snap := tel.Snapshot(); snap.CellsStoppedEarly != 1 {
		t.Fatalf("stop reported %d times, want once", snap.CellsStoppedEarly)
	}
	res, err := l.Result(GoldenInfo{}, rule)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Adaptive, rule.Info()) || !res.Adaptive.StoppedEarly {
		t.Fatalf("adaptive info %+v, want the rule's %+v", res.Adaptive, rule.Info())
	}
}

// TestCellLedgerResultNeedsEveryIndex: the result is an error while an
// in-window index is unsettled — a journaled stop row no decision
// cancelled included — and a shard's ledger asks only for its window.
func TestCellLedgerResultNeedsEveryIndex(t *testing.T) {
	masks := ledgerMasks(4)
	l := NewCellLedger(CellSinks{Key: "k"}, 4, false)
	for _, m := range []int{0, 2, 3} {
		if err := l.Settle(ledgerRun(masks, m, RunCompleted), false); err != nil {
			t.Fatal(err)
		}
	}
	l.Journaled(StoppedRun(1, masks[1]))
	if _, err := l.Result(GoldenInfo{}, nil); err == nil || !strings.Contains(err.Error(), "k mask index 1 never settled") {
		t.Fatalf("result with index 1 unsettled: %v", err)
	}

	shard := NewCellLedger(CellSinks{Key: "k"}, 4, false)
	shard.lo, shard.hi = 1, 3
	for _, m := range []int{1, 2} {
		if err := shard.Settle(ledgerRun(masks, m, RunCompleted), false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := shard.Result(GoldenInfo{}, nil); err != nil {
		t.Fatalf("window [1,3) fully settled: %v", err)
	}
	if err := shard.Settle(ledgerRun(masks, 3, RunCompleted), false); !errors.Is(err, ErrRejectedRow) {
		t.Fatalf("settle outside the window: %v", err)
	}
}

// TestCellLedgerRejections: every row the ledger cannot settle on its
// own terms is a named error wrapping ErrRejectedRow, never a panic or a
// silently wrong record.
func TestCellLedgerRejections(t *testing.T) {
	masks := ledgerMasks(3)
	stub := func(i, rep int) ShardRun { return replicated(i, masks[i], rep) }
	cases := []struct {
		name string
		// settle runs in order; the last must be rejected, or with rows
		// set, CheckRows(0, 3, rows) must.
		settle []ShardRun
		rows   []ShardRun
		want   string
	}{
		{name: "unknown pruned", settle: []ShardRun{{Index: 1, Pruned: "maybe"}}, want: `mask index 1: unknown pruned value "maybe"`},
		{name: "rep past the cell", settle: []ShardRun{stub(1, 99)}, want: "mask index 1: rep_index 99 outside the cell's 3 masks"},
		{name: "negative rep", settle: []ShardRun{stub(1, -1)}, want: "rep_index -1 outside"},
		{name: "replicates itself", settle: []ShardRun{stub(1, 1)}, want: "mask index 1: replicates itself"},
		{name: "rep is a held stub", settle: []ShardRun{stub(0, 2), stub(2, 0)}, want: "mask index 2: replicates mask index 0, itself a replicated row"},
		{name: "rep is a resolved stub", settle: []ShardRun{ledgerRun(masks, 0, RunCompleted), stub(1, 0), stub(2, 1)}, want: "mask index 2: replicates mask index 1, itself a replicated row"},
		{name: "a held stub's rep settles as a stub", settle: []ShardRun{stub(0, 1), stub(1, 2)}, want: "mask index 0: replicates mask index 1, itself a replicated row"},
		{name: "repeated index", rows: []ShardRun{ledgerRun(masks, 0, RunCompleted), ledgerRun(masks, 0, RunCompleted), ledgerRun(masks, 2, RunCompleted)}, want: "mask index 0: repeated in one shard result"},
		{name: "missing index", rows: []ShardRun{ledgerRun(masks, 0, RunCompleted), ledgerRun(masks, 1, RunCompleted)}, want: "mask index 2: missing from its shard's result"},
		{name: "index outside the shard", rows: []ShardRun{ledgerRun(masks, 0, RunCompleted), ledgerRun(masks, 1, RunCompleted), {Index: 5}}, want: "mask index 5: outside the shard window [0,3)"},
		{name: "bad row in a shard", rows: []ShardRun{ledgerRun(masks, 0, RunCompleted), stub(1, 99), ledgerRun(masks, 2, RunCompleted)}, want: "rep_index 99"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewCellLedger(CellSinks{Key: "k"}, 3, false)
			var err error
			if tc.rows != nil {
				err = l.CheckRows(0, 3, tc.rows)
			}
			for j, run := range tc.settle {
				if err = l.Settle(run, false); err != nil && j < len(tc.settle)-1 {
					t.Fatalf("settle %d: %v", j, err)
				}
			}
			if !errors.Is(err, ErrRejectedRow) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want a rejection containing %q", err, tc.want)
			}
		})
	}
}
