package core_test

import (
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sims"
	"repro/internal/workload"
)

func qsortFactory(t *testing.T, tool string) core.Factory {
	t.Helper()
	w, err := workload.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	f, err := sims.Factory(tool, w)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGolden(t *testing.T) {
	f := qsortFactory(t, sims.GeFINX86)
	g, err := core.Golden(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cycles == 0 || g.Committed == 0 || g.OutputLen != 8192 || g.OutputHash == "" {
		t.Fatalf("golden: %+v", g)
	}
	if g.Tool != "GeFIN-x86" {
		t.Fatalf("tool %q", g.Tool)
	}
	if g.Stats["committed_loads"] == 0 {
		t.Fatal("missing stats")
	}
}

func TestRunCampaignAndClassify(t *testing.T) {
	f := qsortFactory(t, sims.MaFINX86)
	g, err := core.Golden(f)
	if err != nil {
		t.Fatal(err)
	}
	sim := f()
	geom := sim.Structures()["rf.int"]
	masks, err := fault.Generate(fault.GeneratorSpec{
		Structure: "rf.int", Entries: geom.Entries(), BitsPerEntry: geom.BitsPerEntry(),
		MaxCycle: g.Cycles, Model: fault.ModelTransient, Count: 30, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := runSpecs([]core.CampaignSpec{{
		Tool: "MaFIN-x86", Benchmark: "qsort", Structure: "rf.int",
		Masks: masks, Factory: f,
	}}, core.CampaignConfig{Workers: 2}, core.Attach{})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if len(res.Records) != 30 {
		t.Fatalf("records %d", len(res.Records))
	}
	for i, r := range res.Records {
		if r.MaskID != i {
			t.Fatalf("record %d has mask id %d (order lost)", i, r.MaskID)
		}
		if len(r.Sites) != 1 || r.Sites[0].Structure != "rf.int" {
			t.Fatalf("record %d sites: %+v", i, r.Sites)
		}
	}
	b := core.Parser{}.ParseAll(res.Records)
	if b.Total != 30 {
		t.Fatalf("breakdown total %d", b.Total)
	}
	if b.Counts[core.ClassMasked] == 0 {
		t.Fatalf("register file campaign with no masked outcomes: %+v", b.Counts)
	}
	sum := 0
	for _, c := range core.Classes {
		sum += b.Counts[c]
	}
	if sum != b.Total {
		t.Fatalf("class counts %v don't sum to %d", b.Counts, b.Total)
	}
	t.Logf("qsort/rf.int on MaFIN: %s", b)
}

func TestCampaignDeterministic(t *testing.T) {
	f := qsortFactory(t, sims.GeFINARM)
	g, err := core.Golden(f)
	if err != nil {
		t.Fatal(err)
	}
	sim := f()
	geom := sim.Structures()["lsq.data"]
	masks, _ := fault.Generate(fault.GeneratorSpec{
		Structure: "lsq.data", Entries: geom.Entries(), BitsPerEntry: geom.BitsPerEntry(),
		MaxCycle: g.Cycles, Model: fault.ModelTransient, Count: 10, Seed: 5,
	})
	run := func() []core.LogRecord {
		res, err := runSpecs([]core.CampaignSpec{{
			Tool: sims.GeFINARM, Benchmark: "qsort", Structure: "lsq.data", Masks: masks, Factory: f,
		}}, core.CampaignConfig{Workers: 3}, core.Attach{})
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Records
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Status != b[i].Status || a[i].OutputHash != b[i].OutputHash {
			t.Fatalf("run %d differs across repetitions: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRunOneUnknownStructure(t *testing.T) {
	f := qsortFactory(t, sims.GeFINX86)
	g, _ := core.Golden(f)
	m := fault.Mask{ID: 0, Sites: []fault.Site{{Structure: "nope", Model: fault.ModelTransient, Cycle: 1}}}
	if _, err := core.RunOne(f, m, g, 3, true); err == nil {
		t.Fatal("unknown structure accepted")
	}
}

func TestParserClassification(t *testing.T) {
	p := core.Parser{}
	cases := []struct {
		rec core.LogRecord
		cls core.Class
		det core.Detail
	}{
		{core.LogRecord{Status: "early-masked"}, core.ClassMasked, core.DetailNone},
		{core.LogRecord{Status: "pruned"}, core.ClassMasked, core.DetailNone},
		{core.LogRecord{Status: "completed", OutputMatch: true}, core.ClassMasked, core.DetailNone},
		{core.LogRecord{Status: "completed"}, core.ClassSDC, core.DetailNone},
		{core.LogRecord{Status: "completed", OutputMatch: true, EventKinds: []string{"alignment"}}, core.ClassDUE, core.DetailFalseDUE},
		{core.LogRecord{Status: "completed", EventKinds: []string{"syscall-error"}}, core.ClassDUE, core.DetailTrueDUE},
		{core.LogRecord{Status: "cycle-limit", CommitStalled: true}, core.ClassTimeout, core.DetailDeadlock},
		{core.LogRecord{Status: "cycle-limit"}, core.ClassTimeout, core.DetailLivelock},
		{core.LogRecord{Status: "process-crash"}, core.ClassCrash, core.DetailProcCrash},
		{core.LogRecord{Status: "system-crash"}, core.ClassCrash, core.DetailSysCrash},
		{core.LogRecord{Status: "simulator-crash"}, core.ClassCrash, core.DetailSimCrash},
		{core.LogRecord{Status: "assert"}, core.ClassAssert, core.DetailNone},
	}
	for i, c := range cases {
		cls, det := p.Classify(c.rec)
		if cls != c.cls || det != c.det {
			t.Errorf("case %d: got %v/%v, want %v/%v", i, cls, det, c.cls, c.det)
		}
	}
	// Reconfiguration: group simulator crashes with asserts.
	p2 := core.Parser{GroupSimCrashWithAssert: true}
	if cls, _ := p2.Classify(core.LogRecord{Status: "simulator-crash"}); cls != core.ClassAssert {
		t.Error("regrouping option ignored")
	}
	// Coarse-grain configuration.
	p3 := core.Parser{CoarseMaskedOnly: true}
	if cls, _ := p3.Classify(core.LogRecord{Status: "process-crash"}); cls != core.NonMasked {
		t.Error("coarse option ignored")
	}
	if cls, _ := p3.Classify(core.LogRecord{Status: "early-masked"}); cls != core.ClassMasked {
		t.Error("coarse option broke masked")
	}
}

func TestBreakdownMath(t *testing.T) {
	recs := []core.LogRecord{
		{Status: "completed", OutputMatch: true},
		{Status: "completed", OutputMatch: true},
		{Status: "completed"},
		{Status: "process-crash"},
	}
	b := core.Parser{}.ParseAll(recs)
	if b.Pct(core.ClassMasked) != 50 || b.Pct(core.ClassSDC) != 25 || b.Pct(core.ClassCrash) != 25 {
		t.Fatalf("percentages: %+v", b.Counts)
	}
	if b.Vulnerability() != 50 {
		t.Fatalf("vulnerability %v", b.Vulnerability())
	}
	if !strings.Contains(b.String(), "vuln=50.00%") {
		t.Fatalf("string: %s", b)
	}
}

func TestLogsRepoRoundTrip(t *testing.T) {
	dir := t.TempDir()
	repo, err := core.NewLogsRepo(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := &core.CampaignResult{
		Golden: core.GoldenInfo{Tool: "T", Benchmark: "b", Structure: "s",
			Cycles: 100, OutputHash: "abcd", Stats: map[string]uint64{"x": 1}},
		Records: []core.LogRecord{
			{MaskID: 0, Status: "completed", OutputMatch: true},
			{MaskID: 1, Status: "assert", AssertMsg: "boom"},
		},
	}
	if err := repo.Store("T__b__s", res); err != nil {
		t.Fatal(err)
	}
	back, err := repo.Load("T__b__s")
	if err != nil {
		t.Fatal(err)
	}
	if back.Golden.Tool != "T" || back.Golden.Stats["x"] != 1 {
		t.Fatalf("golden: %+v", back.Golden)
	}
	if len(back.Records) != 2 || back.Records[1].AssertMsg != "boom" {
		t.Fatalf("records: %+v", back.Records)
	}
	keys, err := repo.Campaigns()
	if err != nil || len(keys) != 1 || keys[0] != "T__b__s" {
		t.Fatalf("campaigns: %v %v", keys, err)
	}
	if _, err := repo.Load("missing"); err == nil {
		t.Fatal("missing load succeeded")
	}
	if back.Adaptive != nil {
		t.Fatalf("fixed-budget logs grew an adaptive trailer: %+v", back.Adaptive)
	}
}

// An artifact whose flush fails leaves no file behind, and none of the
// temp file it was written through; over an earlier artifact it leaves
// that one whole.
func TestFailedArtifactWriteLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	repo, err := core.NewLogsRepo(dir)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	torn := func(w io.Writer) error {
		io.WriteString(w, `{"mask_id":0,"status":"compl`)
		return boom
	}
	path := repo.SpansPath("T__b__s")
	if err := repo.WriteArtifact(path, torn); !errors.Is(err, boom) {
		t.Fatalf("failed flush returned %v, want %v", err, boom)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("a failed flush left %v in the repository", entries)
	}
	const whole = "{\"mask_id\":0}\n"
	if err := repo.WriteArtifact(path, func(w io.Writer) error {
		_, err := io.WriteString(w, whole)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := repo.WriteArtifact(path, torn); !errors.Is(err, boom) {
		t.Fatalf("failed flush returned %v, want %v", err, boom)
	}
	entries, _ := os.ReadDir(dir)
	if got, _ := os.ReadFile(path); string(got) != whole || len(entries) != 1 {
		t.Fatalf("after a failed rewrite the repository holds %v and the file reads %q, want only %q", entries, got, whole)
	}
}

func TestLogsRepoRoundTripAdaptiveTrailer(t *testing.T) {
	repo, err := core.NewLogsRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := &core.CampaignResult{
		Golden: core.GoldenInfo{Tool: "T", Benchmark: "b", Structure: "s", Cycles: 100},
		Records: []core.LogRecord{
			{MaskID: 0, Status: "completed", OutputMatch: true},
			{MaskID: 1, Status: core.RunStopped.String()},
		},
		Adaptive: &core.AdaptiveInfo{
			StoppedEarly: true, SimulatedRuns: 1, PlannedRuns: 2,
			EffectiveMargin: 0.1049, Confidence: 0.99,
		},
	}
	if err := repo.Store("T__b__s", res); err != nil {
		t.Fatal(err)
	}
	back, err := repo.Load("T__b__s")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 2 {
		t.Fatalf("trailer leaked into the records: %+v", back.Records)
	}
	if !reflect.DeepEqual(back.Adaptive, res.Adaptive) {
		t.Fatalf("adaptive trailer round-trip: got %+v want %+v", back.Adaptive, res.Adaptive)
	}
}

func TestAssertHelper(t *testing.T) {
	core.Assert(true, "fine")
	defer func() {
		r := recover()
		ae, ok := r.(core.AssertError)
		if !ok || ae.Msg != "bad" || ae.Error() != "assert: bad" {
			t.Fatalf("recover: %v", r)
		}
	}()
	core.Assert(false, "bad")
}

func TestGeometries(t *testing.T) {
	f := qsortFactory(t, sims.MaFINX86)
	gs := core.Geometries(f())
	found := false
	for _, g := range gs {
		if g.Name == "l1d.data" && g.Entries == 512 && g.BitsPerEntry == 512 {
			found = true
		}
	}
	if !found {
		t.Fatalf("l1d.data geometry missing: %+v", gs)
	}
}
