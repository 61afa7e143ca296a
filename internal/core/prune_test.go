package core_test

import (
	"sync"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sims"
	"repro/internal/telemetry"
)

// readerSim is a deterministic toy simulator built so every pruning
// decision occurs: it writes its single hot entry once (cycle 10), reads
// it once (cycle 50), and never touches entry 1. Faults before the write
// are overwritten, faults between write and read are live and fall into
// one equivalence interval, faults after the read are never accessed.
type readerSim struct {
	arr   *bitarray.Array
	watch []*bitarray.Array
	cycle uint64
}

func newReaderSim() core.Simulator {
	return &readerSim{arr: bitarray.New("r", 2, 64)}
}

func (s *readerSim) Name() string                    { return "Reader" }
func (s *readerSim) ISA() string                     { return "x86" }
func (s *readerSim) CurrentCycle() uint64            { return s.cycle }
func (s *readerSim) SetEarlyStop(on bool)            {}
func (s *readerSim) Stats() map[string]uint64        { return map[string]uint64{} }
func (s *readerSim) WatchArrays(a []*bitarray.Array) { s.watch = a }
func (s *readerSim) Structures() map[string]*bitarray.Array {
	return map[string]*bitarray.Array{"r": s.arr}
}

func (s *readerSim) Run(limit uint64) core.RunResult {
	const cycles = 100
	var out byte
	for cyc := uint64(0); cyc < cycles && cyc < limit; cyc++ {
		s.cycle = cyc
		for _, a := range s.watch {
			a.Tick(cyc)
		}
		if cyc == 10 {
			s.arr.WriteUint64(0, 0xAB)
		}
		if cyc == 50 {
			out = byte(s.arr.ReadUint64(0))
		}
	}
	return core.RunResult{Status: core.RunCompleted, Output: []byte{out}, Cycles: cycles, Committed: cycles}
}

// readerMasks covers every plan outcome: overwritten, same-interval
// live duplicates, never-accessed (late and untouched-entry).
func readerMasks() []fault.Mask {
	site := func(entry, bit int, cycle uint64) []fault.Site {
		return []fault.Site{{Structure: "r", Entry: entry, Bit: bit, Model: fault.ModelTransient, Cycle: cycle}}
	}
	return []fault.Mask{
		{ID: 0, Sites: site(0, 3, 5)},  // overwritten at 10 → dead
		{ID: 1, Sites: site(0, 3, 20)}, // live until the read at 50: representative
		{ID: 2, Sites: site(0, 3, 30)}, // same interval → replicated (SDC)
		{ID: 3, Sites: site(0, 3, 49)}, // same interval → replicated
		{ID: 4, Sites: site(0, 3, 60)}, // after the read → never accessed
		{ID: 5, Sites: site(1, 3, 20)}, // untouched entry → never accessed
		{ID: 6, Sites: site(0, 7, 20)}, // different bit, read covers word → live, own class
	}
}

func classesOf(t *testing.T, recs []core.LogRecord) []core.Class {
	t.Helper()
	out := make([]core.Class, len(recs))
	for i, r := range recs {
		out[i], _ = core.Parser{}.Classify(r)
	}
	return out
}

// The whole point of the pruner: a pruned matrix must classify every
// mask exactly like the unpruned one.
func TestPruneDifferentialOnToySim(t *testing.T) {
	spec := func() core.CampaignSpec {
		return core.CampaignSpec{
			Tool: "Reader", Benchmark: "toy", Structure: "r",
			Masks: readerMasks(), Factory: newReaderSim,
		}
	}
	plain, err := runSpecs([]core.CampaignSpec{spec()}, core.CampaignConfig{Workers: 2}, core.Attach{})
	if err != nil {
		t.Fatal(err)
	}
	collector := telemetry.New()
	trace := telemetry.NewTraceSink()
	collector.AddSink(trace)
	pruned, err := runSpecs([]core.CampaignSpec{spec()}, core.CampaignConfig{
		Workers: 2, Prune: true, PruneVerify: 100,
	}, core.Attach{Telemetry: collector})
	if err != nil {
		t.Fatal(err)
	}
	want := classesOf(t, plain[0].Records)
	got := classesOf(t, pruned[0].Records)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("mask %d: pruned class %v, plain class %v", i, got[i], want[i])
		}
	}
	// Live faults at bit 3 flip the output byte: SDC for the
	// representative and both replicas.
	for _, i := range []int{1, 2, 3, 6} {
		if got[i] != core.ClassSDC {
			t.Errorf("mask %d: %v, want SDC", i, got[i])
		}
	}

	snap := collector.Snapshot()
	if snap.PrunedDead != 3 {
		t.Errorf("PrunedDead = %d, want 3", snap.PrunedDead)
	}
	if snap.PrunedReplicated != 2 {
		t.Errorf("PrunedReplicated = %d, want 2", snap.PrunedReplicated)
	}
	if snap.RunsQueued != 7 || snap.RunsStarted != 7 || snap.RunsDone != 7 {
		t.Errorf("run accounting %d/%d/%d, want 7/7/7 (verify runs must be invisible)",
			snap.RunsQueued, snap.RunsStarted, snap.RunsDone)
	}

	// The trace still carries one row per injection, in mask order, with
	// prune provenance on the settled rows.
	rows := trace.Records()
	if len(rows) != len(readerMasks()) {
		t.Fatalf("trace rows = %d, want %d", len(rows), len(readerMasks()))
	}
	wantPruned := []string{"dead", "", "replicated", "replicated", "dead", "dead", ""}
	for i, row := range rows {
		if row.MaskID != i {
			t.Fatalf("trace row %d out of order: mask %d", i, row.MaskID)
		}
		if row.Pruned != wantPruned[i] {
			t.Errorf("trace row %d: pruned %q, want %q", i, row.Pruned, wantPruned[i])
		}
		if row.Pruned == "replicated" {
			if row.RepMask == nil || *row.RepMask != 1 {
				t.Errorf("trace row %d: rep_mask %v, want 1", i, row.RepMask)
			}
		} else if row.RepMask != nil {
			t.Errorf("trace row %d: unexpected rep_mask %v", i, *row.RepMask)
		}
	}
}

// pruneSpecsFor builds small real campaigns over two structures for one
// tool on qsort.
func pruneSpecsFor(t *testing.T, tool string) []core.CampaignSpec {
	t.Helper()
	f := qsortFactory(t, tool)
	g, err := core.Golden(f)
	if err != nil {
		t.Fatal(err)
	}
	sim := f()
	var specs []core.CampaignSpec
	for _, structure := range []string{"rf.int", "l1d.data"} {
		arr := sim.Structures()[structure]
		masks, err := fault.Generate(fault.GeneratorSpec{
			Structure: structure, Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
			MaxCycle: g.Cycles, Model: fault.ModelTransient, Count: 12, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, core.CampaignSpec{
			Tool: tool, Benchmark: "qsort", Structure: structure,
			Masks: masks, Factory: f,
		})
	}
	return specs
}

// Pruned and unpruned matrices must classify identically on the real
// simulators — both tools, both ISAs — at the default ladder and at
// another K. PruneVerify doubles as an in-matrix differential assertion
// on a sample of the pruned masks.
func TestPruneDifferentialRealSims(t *testing.T) {
	for _, tool := range []string{sims.MaFINX86, sims.GeFINX86, sims.GeFINARM} {
		for _, ladder := range []int{0, 3} {
			plain, err := runSpecs(pruneSpecsFor(t, tool), core.CampaignConfig{
				Workers: 4, CheckpointLadder: ladder,
			}, core.Attach{})
			if err != nil {
				t.Fatalf("%s ladder=%d plain: %v", tool, ladder, err)
			}
			pruned, err := runSpecs(pruneSpecsFor(t, tool), core.CampaignConfig{
				Workers: 4, CheckpointLadder: ladder, Prune: true, PruneVerify: 6,
			}, core.Attach{})
			if err != nil {
				t.Fatalf("%s ladder=%d pruned: %v", tool, ladder, err)
			}
			for s := range plain {
				want := classesOf(t, plain[s].Records)
				got := classesOf(t, pruned[s].Records)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s ladder=%d %s mask %d: pruned %v, plain %v",
							tool, ladder, plain[s].Golden.Structure, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// A simulator without a cycle source cannot be profiled; pruning must
// degrade to simulating everything rather than failing or misclassifying.
func TestPruneWithoutCycleSourceDegrades(t *testing.T) {
	var calls int64
	factory := countingFactory(&calls)
	spec := core.CampaignSpec{
		Tool: "fake", Benchmark: "b", Structure: "s",
		Masks: fakeMasks(6), Factory: factory,
	}
	collector := telemetry.New()
	res, err := runSpecs([]core.CampaignSpec{spec}, core.CampaignConfig{
		Workers: 2, Prune: true, PruneVerify: 4,
	}, core.Attach{Telemetry: collector})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Records) != 6 {
		t.Fatalf("records = %d", len(res[0].Records))
	}
	snap := collector.Snapshot()
	if snap.PrunedDead+snap.PrunedReplicated != 0 {
		t.Fatalf("pruned %d+%d masks without a profile", snap.PrunedDead, snap.PrunedReplicated)
	}
	if snap.RunsDone != 6 {
		t.Fatalf("RunsDone = %d", snap.RunsDone)
	}
}

// Concurrent pruned matrices sharing one golden cache and collector must
// be race-free (run with -race) and each reach the same classification.
func TestPruneConcurrentMatricesSharedCache(t *testing.T) {
	f := qsortFactory(t, sims.GeFINX86)
	g, err := core.Golden(f)
	if err != nil {
		t.Fatal(err)
	}
	sim := f()
	arr := sim.Structures()["rf.int"]
	masks, err := fault.Generate(fault.GeneratorSpec{
		Structure: "rf.int", Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
		MaxCycle: g.Cycles, Model: fault.ModelTransient, Count: 8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewGoldenCache()
	collector := telemetry.New()
	const rounds = 3
	out := make([][]*core.CampaignResult, rounds)
	errs := make([]error, rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out[r], errs[r] = runSpecs([]core.CampaignSpec{{
				Tool: sims.GeFINX86, Benchmark: "qsort", Structure: "rf.int",
				Masks: masks, Factory: f,
			}}, core.CampaignConfig{
				Workers: 2, Prune: true, CheckpointLadder: 3,
			}, core.Attach{Golden: cache, Telemetry: collector})
		}(r)
	}
	wg.Wait()
	for r := 0; r < rounds; r++ {
		if errs[r] != nil {
			t.Fatalf("round %d: %v", r, errs[r])
		}
	}
	base := classesOf(t, out[0][0].Records)
	for r := 1; r < rounds; r++ {
		got := classesOf(t, out[r][0].Records)
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("round %d mask %d: %v, want %v", r, i, got[i], base[i])
			}
		}
	}
}
