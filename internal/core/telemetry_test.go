package core_test

import (
	"bytes"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sims"
	"repro/internal/telemetry"
)

func telemetrySpecs(t *testing.T, f core.Factory) []core.CampaignSpec {
	t.Helper()
	g, err := core.Golden(f)
	if err != nil {
		t.Fatal(err)
	}
	sim := f()
	var specs []core.CampaignSpec
	for _, structure := range []string{"rf.int", "lsq.data"} {
		arr := sim.Structures()[structure]
		masks, err := fault.Generate(fault.GeneratorSpec{
			Structure: structure, Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
			MaxCycle: g.Cycles, Model: fault.ModelTransient, Count: 8, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, core.CampaignSpec{
			Tool: sims.GeFINX86, Benchmark: "qsort", Structure: structure,
			Masks: masks, Factory: f,
		})
	}
	return specs
}

// The collector's outcome histogram after a matrix must be identical to
// what the offline parser computes from the stored records, and the
// run-accounting counters must balance exactly — the telemetry layer is
// a second bookkeeper of the same campaign, not an approximation.
func TestMatrixTelemetryMatchesClassification(t *testing.T) {
	f := qsortFactory(t, sims.GeFINX86)
	specs := telemetrySpecs(t, f)

	cache := core.NewGoldenCache()
	collector := telemetry.New()
	trace := telemetry.NewTraceSink()
	collector.AddSink(trace)
	results, err := runSpecs(specs, core.CampaignConfig{Workers: 4}, core.Attach{Golden: cache, Telemetry: collector})
	if err != nil {
		t.Fatal(err)
	}

	totalRuns := 0
	wantClasses := make(map[string]uint64)
	for _, res := range results {
		totalRuns += len(res.Records)
		b := (core.Parser{}).ParseAll(res.Records)
		for cls, n := range b.Counts {
			wantClasses[string(cls)] += uint64(n)
		}
	}

	s := collector.Snapshot()
	if s.RunsQueued != uint64(totalRuns) || s.RunsStarted != uint64(totalRuns) || s.RunsDone != uint64(totalRuns) {
		t.Fatalf("queued/started/done = %d/%d/%d, want all %d",
			s.RunsQueued, s.RunsStarted, s.RunsDone, totalRuns)
	}
	if len(s.ClassCounts) != len(wantClasses) {
		t.Fatalf("telemetry classes %v, parser classes %v", s.ClassCounts, wantClasses)
	}
	for cls, want := range wantClasses {
		if got := s.ClassCounts[cls]; got != want {
			t.Fatalf("ClassCounts[%s] = %d, parser says %d", cls, got, want)
		}
	}
	if trace.Len() != totalRuns {
		t.Fatalf("trace has %d records, want one per injection (%d)", trace.Len(), totalRuns)
	}

	// The golden gauge mirrors the cache: one performed run for the
	// single {tool, benchmark} row, the second campaign served as a hit.
	if got := int(s.GoldenRuns); got != cache.Runs() {
		t.Fatalf("GoldenRuns = %d, cache says %d", got, cache.Runs())
	}
	if s.GoldenRuns != 1 {
		t.Fatalf("GoldenRuns = %d, want 1 (one {tool,benchmark} row)", s.GoldenRuns)
	}
	if s.GoldenHits == 0 {
		t.Fatal("no golden-cache hits recorded across two campaigns of one row")
	}
	if s.SimCycles == 0 || s.Workers != 4 {
		t.Fatalf("SimCycles=%d Workers=%d", s.SimCycles, s.Workers)
	}
	if s.WatchedReads+s.WatchedWrites == 0 {
		t.Fatal("no watched-array traffic recorded")
	}
	if s.FastPathRate <= 0 || s.FastPathRate > 1 {
		t.Fatalf("FastPathRate = %v, want within (0, 1]", s.FastPathRate)
	}

	// Two campaign rows, each with its own classification slice.
	if len(s.Campaigns) != 2 {
		t.Fatalf("got %d campaign rows, want 2", len(s.Campaigns))
	}
	for i, res := range results {
		b := (core.Parser{}).ParseAll(res.Records)
		var row telemetry.CampaignSnapshot
		for _, r := range s.Campaigns {
			if r.Structure == specs[i].Structure {
				row = r
			}
		}
		if row.Runs != uint64(len(res.Records)) {
			t.Fatalf("campaign %s row has %d runs, want %d", specs[i].Structure, row.Runs, len(res.Records))
		}
		for cls, n := range b.Counts {
			if row.Classes[string(cls)] != uint64(n) {
				t.Fatalf("campaign %s class %s = %d, parser says %d",
					specs[i].Structure, cls, row.Classes[string(cls)], n)
			}
		}
	}
}

// The JSONL trace for a fixed seed must be byte-identical regardless of
// the worker count: workers finish in nondeterministic order, and the
// sink's (campaign, mask id) sort is what restores determinism.
func TestTraceByteStableAcrossWorkerCounts(t *testing.T) {
	f := qsortFactory(t, sims.GeFINX86)

	flush := func(workers int) []byte {
		collector := telemetry.New()
		trace := telemetry.NewTraceSink()
		collector.AddSink(trace)
		if _, err := runSpecs(telemetrySpecs(t, f), core.CampaignConfig{Workers: workers}, core.Attach{Telemetry: collector}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial := flush(1)
	if len(serial) == 0 {
		t.Fatal("empty trace")
	}
	for _, workers := range []int{2, 8} {
		if got := flush(workers); !bytes.Equal(serial, got) {
			t.Fatalf("trace bytes differ between Workers=1 and Workers=%d", workers)
		}
	}

	// And the bytes decode back into exactly one row per injection with
	// the campaign keys the scheduler stamped.
	recs, err := fault.ReadTrace(bytes.NewReader(serial))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 16 {
		t.Fatalf("trace has %d rows, want 16 (2 campaigns x 8 masks)", len(recs))
	}
	for _, rec := range recs {
		if rec.Campaign == "" || rec.Class == "" || rec.Status == "" {
			t.Fatalf("trace row missing fields: %+v", rec)
		}
		if len(rec.Sites) == 0 {
			t.Fatalf("trace row %d has no mask coordinates", rec.MaskID)
		}
	}
}

// obsSim reads entries 0-1 every cycle (faults there get observed) and
// writes entries 2-3 without reading them back (faults there get proven
// overwritten, triggering an early stop); entries 4-7 stay untouched.
type obsSim struct {
	arr       *bitarray.Array
	watch     []*bitarray.Array
	earlyStop bool
}

func (s *obsSim) Name() string { return "Obs" }
func (s *obsSim) ISA() string  { return "x86" }
func (s *obsSim) Structures() map[string]*bitarray.Array {
	return map[string]*bitarray.Array{"s": s.arr}
}
func (s *obsSim) WatchArrays(arrs []*bitarray.Array) { s.watch = arrs }
func (s *obsSim) SetEarlyStop(on bool)               { s.earlyStop = on }
func (s *obsSim) Stats() map[string]uint64           { return nil }

func (s *obsSim) Run(limit uint64) core.RunResult {
	const cycles = 100
	out := make([]byte, 8)
	for cyc := uint64(0); cyc < cycles && cyc < limit; cyc++ {
		for _, a := range s.watch {
			st := a.Tick(cyc)
			if s.earlyStop && (st == bitarray.StatusOverwritten || st == bitarray.StatusSkippedInvalid) {
				return core.RunResult{Status: core.RunEarlyMasked, Cycles: cyc, Committed: cyc}
			}
		}
		out[0] ^= byte(s.arr.ReadUint64(0))
		out[1] ^= byte(s.arr.ReadUint64(1))
		s.arr.WriteUint64(2+int(cyc%2), cyc)
	}
	return core.RunResult{Status: core.RunCompleted, Output: out, Cycles: cycles, Committed: cycles}
}

// Early-stop proofs and the observation lifecycle must flow through to
// the events: with obsSim every fault lands in an entry that is either
// read (observed, with a first-observation cycle), blind-written
// (proven overwritten — an early stop with its reason), or untouched.
func TestTelemetryEarlyStopAndObservation(t *testing.T) {
	factory := core.Factory(func() core.Simulator {
		return &obsSim{arr: bitarray.New("s", 8, 64), earlyStop: true}
	})
	collector := telemetry.New()
	trace := telemetry.NewTraceSink()
	collector.AddSink(trace)
	if _, err := runSpecs([]core.CampaignSpec{{
		Tool: "fake", Benchmark: "b", Structure: "s",
		Masks: fakeMasks(12), Factory: factory,
	}}, core.CampaignConfig{Workers: 3}, core.Attach{Telemetry: collector}); err != nil {
		t.Fatal(err)
	}
	s := collector.Snapshot()
	var observed, early int
	for _, rec := range trace.Records() {
		switch {
		case rec.Observed:
			observed++
			if rec.FirstObsCycle < rec.Sites[0].Cycle {
				t.Fatalf("mask %d observed at cycle %d before injection at %d",
					rec.MaskID, rec.FirstObsCycle, rec.Sites[0].Cycle)
			}
		case rec.EarlyStop != "":
			early++
			if rec.EarlyStop != "overwritten" && rec.EarlyStop != "skipped-invalid" {
				t.Fatalf("mask %d has unknown early-stop reason %q", rec.MaskID, rec.EarlyStop)
			}
		}
	}
	if observed == 0 {
		t.Fatal("no run observed its fault")
	}
	if early == 0 {
		t.Fatal("no run stopped early on a proven-overwritten fault")
	}
	if uint64(early) != s.EarlyStops {
		t.Fatalf("trace says %d early stops, collector says %d", early, s.EarlyStops)
	}
	if s.ObservedReads == 0 {
		t.Fatal("no observation slow-path reads counted")
	}
	if s.ObservedReads+s.ObservedWrites > s.WatchedReads+s.WatchedWrites {
		t.Fatalf("observed accesses (%d) exceed watched accesses (%d)",
			s.ObservedReads+s.ObservedWrites, s.WatchedReads+s.WatchedWrites)
	}
}
