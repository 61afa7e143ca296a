package core_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sims"
	"repro/internal/telemetry"
)

// A mask targeting coordinates outside its structure's geometry must be
// rejected by name at plan time — before any injection run (whose Arm
// would panic) is dispatched.
func TestRunMatrixValidatesMasksUpFront(t *testing.T) {
	var calls int64
	factory := countingFactory(&calls)
	masks := fakeMasks(8)
	masks[5].Sites[0].Entry = 99 // the fake structure is 8×64
	_, err := runSpecs([]core.CampaignSpec{{
		Tool: "fake", Benchmark: "b", Structure: "s",
		Masks: masks, Factory: factory,
	}}, core.CampaignConfig{Workers: 4}, core.Attach{})
	if err == nil || !strings.Contains(err.Error(), "mask 5") {
		t.Fatalf("err = %v, want a validation error naming mask 5", err)
	}
	if calls != 1 {
		t.Fatalf("factory calls = %d, want 1 (golden only: nothing may simulate after failed validation)", calls)
	}
}

// panicSim panics like a buggy simulator internal whenever its armed
// fault targets bit 63 — a failure mode plan-time validation cannot see.
type panicSim struct{ *fakeSim }

func (s *panicSim) Run(limit uint64) core.RunResult {
	if f, ok := s.arr.ArmedFault(); ok && f.Bit == 63 {
		panic("injected worker panic")
	}
	return s.fakeSim.Run(limit)
}

// A panic escaping a run must be contained to that run and surface as
// the error of the earliest poisoned mask, regardless of worker count —
// never abort the process, never report the later mask.
func TestRunMatrixContainedPanicFirstError(t *testing.T) {
	factory := func() core.Simulator { return &panicSim{newFakeSim()} }
	masks := fakeMasks(12)
	masks[4].Sites[0].Bit = 63
	masks[9].Sites[0].Bit = 63
	for _, workers := range []int{1, 2, 8} {
		col := telemetry.New()
		_, err := runSpecs([]core.CampaignSpec{{
			Tool: "fake", Benchmark: "b", Structure: "s",
			Masks: masks, Factory: factory,
		}}, core.CampaignConfig{Workers: workers}, core.Attach{Telemetry: col})
		if err == nil {
			t.Fatalf("workers=%d: poisoned campaign succeeded", workers)
		}
		if !strings.Contains(err.Error(), "mask 4: contained panic") {
			t.Fatalf("workers=%d: err = %v, want the contained panic of mask 4", workers, err)
		}
		var pe *core.PanicError
		if !errors.As(err, &pe) || pe.MaskID != 4 || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: err %v does not unwrap to a PanicError with mask 4 and a stack", workers, err)
		}
		if snap := col.Snapshot(); snap.PanicsContained == 0 {
			t.Fatalf("workers=%d: telemetry reports no contained panics", workers)
		}
	}
}

// assertSim escalates an armed bit-62 fault into a simulator-internal
// AssertError panic — the simulator's own Run recovery never sees it.
type assertSim struct{ *fakeSim }

func (s *assertSim) Run(limit uint64) core.RunResult {
	if f, ok := s.arr.ArmedFault(); ok && f.Bit == 62 {
		panic(core.AssertError{Msg: "rob entry bounds check failed"})
	}
	return s.fakeSim.Run(limit)
}

// An AssertError escaping a run is an outcome, not a scheduler failure:
// the containment boundary classifies it as an assert record and the
// campaign completes.
func TestRunMatrixEscapedAssertBecomesRecord(t *testing.T) {
	factory := func() core.Simulator { return &assertSim{newFakeSim()} }
	masks := fakeMasks(6)
	masks[2].Sites[0].Bit = 62
	res, err := runSpecs([]core.CampaignSpec{{
		Tool: "fake", Benchmark: "b", Structure: "s",
		Masks: masks, Factory: factory,
	}}, core.CampaignConfig{Workers: 3}, core.Attach{})
	if err != nil {
		t.Fatal(err)
	}
	rec := res[0].Records[2]
	if rec.Status != core.RunAssert.String() || rec.AssertMsg != "rob entry bounds check failed" {
		t.Fatalf("escaped assert recorded as %+v", rec)
	}
	if cls, _ := (core.Parser{}).Classify(rec); cls != core.ClassAssert {
		t.Fatalf("escaped assert classified %s", cls)
	}
	for i, r := range res[0].Records {
		if i != 2 && r.Status == core.RunAssert.String() {
			t.Fatalf("record %d also reports an assert: %+v", i, r)
		}
	}
}

// truncateLines rewrites path keeping only its first keep lines —
// simulating a campaign killed mid-flight with keep runs acknowledged.
func truncateLines(t *testing.T, path string, keep int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) <= keep {
		t.Fatalf("journal has only %d lines, cannot keep %d", len(lines)-1, keep)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines[:keep], "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// A resumed campaign must reproduce the uninterrupted run exactly: same
// records, byte-identical trace, with the journaled masks loaded (not
// re-simulated) and counted as resumed.
func TestMatrixJournalResumeCounts(t *testing.T) {
	const n, keep = 10, 4
	path := filepath.Join(t.TempDir(), "j.journal.jsonl")

	run := func(resume bool, calls *int64) ([]core.LogRecord, telemetry.Snapshot, []byte) {
		j, err := fault.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		col := telemetry.New()
		trace := telemetry.NewTraceSink()
		col.AddSink(trace)
		res, err := runSpecs([]core.CampaignSpec{{
			Tool: "fake", Benchmark: "b", Structure: "s",
			Masks: fakeMasks(n), Factory: countingFactory(calls),
		}}, core.CampaignConfig{Workers: 2}, core.Attach{Telemetry: col, Journal: j, Resume: resume})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		return res[0].Records, col.Snapshot(), buf.Bytes()
	}

	var refCalls int64
	refRecs, refSnap, refTrace := run(false, &refCalls)
	if refSnap.Resumed != 0 {
		t.Fatalf("reference run reports %d resumed", refSnap.Resumed)
	}

	truncateLines(t, path, keep)

	var resCalls int64
	gotRecs, snap, gotTrace := run(true, &resCalls)
	if !reflect.DeepEqual(gotRecs, refRecs) {
		t.Fatalf("resumed records differ:\n%+v\nvs\n%+v", gotRecs, refRecs)
	}
	if snap.Resumed != keep {
		t.Fatalf("snapshot reports %d resumed, want %d", snap.Resumed, keep)
	}
	if want := int64(1 + n - keep); resCalls != want {
		t.Fatalf("resume made %d factory calls, want %d (1 golden + %d remaining runs)", resCalls, want, n-keep)
	}
	if !bytes.Equal(gotTrace, refTrace) {
		t.Fatalf("resumed trace differs from the uninterrupted trace:\n%s\nvs\n%s", gotTrace, refTrace)
	}
	entries, err := fault.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n {
		t.Fatalf("journal holds %d entries after resume, want %d", len(entries), n)
	}
}

// The resume guarantee must also hold with pruning, prune-verify and the
// checkpoint ladder in play on real simulators: the plan is regenerated
// deterministically, journaled masks skip the queue, and the records and
// trace stay byte-identical to an uninterrupted run.
func TestMatrixJournalResumeDifferential(t *testing.T) {
	f := qsortFactory(t, sims.GeFINX86)
	g, err := core.Golden(f)
	if err != nil {
		t.Fatal(err)
	}
	sim := f()
	buildSpecs := func() []core.CampaignSpec {
		var specs []core.CampaignSpec
		for _, structure := range []string{"rf.int", "l1d.data"} {
			arr := sim.Structures()[structure]
			// Enough masks that pruning (heavy on both structures) still
			// leaves several simulated runs for the journal to hold.
			masks, err := fault.Generate(fault.GeneratorSpec{
				Structure: structure, Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
				MaxCycle: g.Cycles, Model: fault.ModelTransient, Count: 25, Seed: 17,
			})
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, core.CampaignSpec{
				Tool: "gefin-x86", Benchmark: "qsort", Structure: structure,
				Masks: masks, Factory: f,
			})
		}
		return specs
	}
	run := func(path string, resume bool) ([]*core.CampaignResult, []byte, telemetry.Snapshot) {
		j, err := fault.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		col := telemetry.New()
		trace := telemetry.NewTraceSink()
		col.AddSink(trace)
		res, err := runSpecs(buildSpecs(), core.CampaignConfig{
			Workers: 4,
			Prune:   true, PruneVerify: 2, CheckpointLadder: 3,
		}, core.Attach{Telemetry: col, Journal: j, Resume: resume})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes(), col.Snapshot()
	}

	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.journal.jsonl")
	resPath := filepath.Join(dir, "resumed.journal.jsonl")
	ref, refTrace, _ := run(refPath, false)

	// The resumed journal is the reference journal cut mid-write.
	data, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(resPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	total := strings.Count(string(data), "\n")
	if total < 2 {
		t.Fatalf("reference journal has only %d lines — raise the mask counts so pruning leaves runs to journal", total)
	}
	keep := total / 2
	truncateLines(t, resPath, keep)

	got, gotTrace, snap := run(resPath, true)
	for s := range ref {
		if !reflect.DeepEqual(got[s].Records, ref[s].Records) {
			t.Fatalf("campaign %d: resumed records differ from reference", s)
		}
	}
	if !bytes.Equal(gotTrace, refTrace) {
		t.Fatalf("resumed trace differs from the uninterrupted trace")
	}
	if snap.Resumed != uint64(keep) {
		t.Fatalf("snapshot reports %d resumed, want %d", snap.Resumed, keep)
	}
}

// An empty (fault-free) mask must boot from scratch and replay the whole
// golden run — not silently restore the highest checkpoint rung, which
// ^uint64(0) fed into rung selection used to do.
func TestEmptyMaskBootsFromScratch(t *testing.T) {
	f := qsortFactory(t, sims.GeFINX86)
	col := telemetry.New()
	res, err := runSpecs([]core.CampaignSpec{{
		Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int",
		Masks: []fault.Mask{{ID: 0}}, Factory: f,
	}}, core.CampaignConfig{Workers: 1, CheckpointLadder: 3}, core.Attach{Telemetry: col})
	if err != nil {
		t.Fatal(err)
	}
	rec, g := res[0].Records[0], res[0].Golden
	if rec.Status != core.RunCompleted.String() || !rec.OutputMatch {
		t.Fatalf("fault-free run: %+v", rec)
	}
	if rec.Cycles != g.Cycles {
		t.Fatalf("fault-free run took %d cycles, golden %d — it restored a checkpoint rung", rec.Cycles, g.Cycles)
	}
	if snap := col.Snapshot(); snap.LadderRestores != 0 {
		t.Fatalf("fault-free run restored %d rungs, want 0", snap.LadderRestores)
	}
}

// eventSink captures raw run events for per-run stat assertions.
type eventSink struct {
	mu  sync.Mutex
	evs []telemetry.RunEvent
}

func (s *eventSink) RunEvent(ev telemetry.RunEvent) {
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}

// A mask with several sites on the same structure must watch (and tick)
// that structure once: duplicate registration double-counted its access
// stats and advanced its fault clock twice per cycle.
func TestMultiSiteSameStructureWatchDedupe(t *testing.T) {
	// Cycle 1000 never arrives in the 100-cycle fake run, so the access
	// counters reflect plumbing alone, not fault behavior.
	site := func(entry, bit int) fault.Site {
		return fault.Site{Structure: "s", Entry: entry, Bit: bit, Model: fault.ModelTransient, Cycle: 1000}
	}
	run := func(sites []fault.Site) telemetry.RunEvent {
		var calls int64
		col := telemetry.New()
		sink := &eventSink{}
		col.AddSink(sink)
		_, err := runSpecs([]core.CampaignSpec{{
			Tool: "fake", Benchmark: "b", Structure: "s",
			Masks: []fault.Mask{{ID: 0, Sites: sites}}, Factory: countingFactory(&calls),
		}}, core.CampaignConfig{Workers: 1}, core.Attach{Telemetry: col})
		if err != nil {
			t.Fatal(err)
		}
		if len(sink.evs) != 1 {
			t.Fatalf("captured %d events, want 1", len(sink.evs))
		}
		return sink.evs[0]
	}
	single := run([]fault.Site{site(0, 1)})
	double := run([]fault.Site{site(0, 1), site(2, 3)})
	if double.WatchedReads != single.WatchedReads || double.WatchedWrites != single.WatchedWrites {
		t.Fatalf("multi-site mask double-counts its structure: reads %d vs %d, writes %d vs %d",
			double.WatchedReads, single.WatchedReads, double.WatchedWrites, single.WatchedWrites)
	}
}

// wedgeSim blocks forever inside Run whenever a fault is armed — the
// cycle budget never fires because cycles never advance.
type wedgeSim struct {
	*fakeSim
	release chan struct{}
}

func (s *wedgeSim) Run(limit uint64) core.RunResult {
	if _, ok := s.arr.ArmedFault(); ok {
		<-s.release
		return core.RunResult{Status: core.RunCycleLimit, Cycles: limit}
	}
	return s.fakeSim.Run(limit)
}

// The wall-clock backstop must reclaim worker slots from wedged runs and
// record them as commit-stalled cycle-limit runs (class Timeout,
// deadlock detail).
func TestRunWallLimitClassifiesWedgedRuns(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	factory := func() core.Simulator { return &wedgeSim{fakeSim: newFakeSim(), release: release} }
	res, err := runSpecs([]core.CampaignSpec{{
		Tool: "fake", Benchmark: "b", Structure: "s",
		Masks: fakeMasks(3), Factory: factory,
	}}, core.CampaignConfig{Workers: 2, RunWallLimit: 50 * time.Millisecond}, core.Attach{})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range res[0].Records {
		if rec.Status != core.RunCycleLimit.String() || !rec.CommitStalled {
			t.Fatalf("record %d: %+v, want a commit-stalled cycle-limit record", i, rec)
		}
		if cls, det := (core.Parser{}).Classify(rec); cls != core.ClassTimeout || det != core.DetailDeadlock {
			t.Fatalf("record %d classified %s/%s, want Timeout/deadlock", i, cls, det)
		}
		if rec.MaskID != i {
			t.Fatalf("record %d carries mask id %d", i, rec.MaskID)
		}
	}
}
