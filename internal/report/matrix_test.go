package report

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/sims"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// serialReference reproduces the pre-scheduler serial path of one
// campaign: its own golden run, the same deterministic mask population,
// and one boot-run per mask in order — no memoization, no shared queue.
func serialReference(t *testing.T, tool, bench, structure string, opt Options) *core.CampaignResult {
	t.Helper()
	w, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := sims.Factory(tool, w)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := core.Golden(factory)
	if err != nil {
		t.Fatal(err)
	}
	// The scheduler stamps the cell's identity on the golden header.
	golden.Tool, golden.Benchmark, golden.Structure = tool, bench, structure
	sim := factory()
	arr, ok := sim.Structures()[structure]
	if !ok {
		t.Fatalf("%s has no structure %q", tool, structure)
	}
	masks, err := fault.Generate(fault.GeneratorSpec{
		Structure: structure, Entries: arr.Entries(), BitsPerEntry: arr.BitsPerEntry(),
		MaxCycle: golden.Cycles, Model: fault.ModelTransient,
		Count: opt.injections(), Seed: seedFor(opt.Campaign.Seed, 0, bench, tool+structure),
	})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Campaign.LiveOnly {
		twin := factory()
		if res := twin.Run(1 << 62); res.Status != core.RunCompleted {
			t.Fatalf("twin probe: %v", res.Status)
		}
		tarr := twin.Structures()[structure]
		var live []int
		for e := 0; e < tarr.Entries(); e++ {
			if tarr.EntryValid(e) {
				live = append(live, e)
			}
		}
		if len(live) == 0 {
			t.Fatalf("no live entries in %s", structure)
		}
		for i := range masks {
			for j := range masks[i].Sites {
				masks[i].Sites[j].Entry = live[masks[i].Sites[j].Entry%len(live)]
			}
		}
	}
	res := &core.CampaignResult{Golden: golden}
	for _, m := range masks {
		rec, err := core.RunOne(factory, m, golden, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		res.Records = append(res.Records, rec)
	}
	return res
}

// The scheduler-driven figure path must be byte-identical to the serial
// pre-scheduler path for a fixed seed: same per-mask records, same
// breakdowns, same golden cells.
func TestRunFiguresMatchesSerialReference(t *testing.T) {
	opt := Options{
		Campaign:   core.CampaignConfig{Injections: 8, Seed: 7, Workers: 4},
		Benchmarks: []string{"qsort"},
	}
	spec := Figures[4] // Fig 6: lsq.data
	cache := core.NewGoldenCache()
	opt.GoldenCache = cache
	fd, err := RunFigure(spec, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range opt.tools() {
		want := serialReference(t, tool, "qsort", spec.Structure, opt)
		// Per-mask records through the scheduler path.
		res, err := RunCampaignFor(tool, "qsort", spec.Structure, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Records, want.Records) {
			t.Fatalf("%s: scheduler records differ from serial reference:\n%+v\nvs\n%+v",
				tool, res.Records, want.Records)
		}
		if !reflect.DeepEqual(res.Golden, want.Golden) {
			t.Fatalf("%s: golden differs: %+v vs %+v", tool, res.Golden, want.Golden)
		}
		// Figure cells.
		cell, ok := fd.CellFor("qsort", tool)
		if !ok {
			t.Fatalf("missing cell for %s", tool)
		}
		if !reflect.DeepEqual(cell.Breakdown, opt.Parser.ParseAll(want.Records)) {
			t.Fatalf("%s: cell breakdown differs from serial reference", tool)
		}
		if !reflect.DeepEqual(cell.Golden, want.Golden) {
			t.Fatalf("%s: cell golden differs: %+v vs %+v", tool, cell.Golden, want.Golden)
		}
	}
	// One golden simulation per {tool, benchmark} row for the whole
	// matrix — the serial path performed two per structure campaign.
	if got, want := cache.Runs(), len(opt.tools()); got != want {
		t.Fatalf("golden runs = %d, want exactly %d (one per row)", got, want)
	}
}

// A two-figure matrix over the same rows must still run each row's
// golden exactly once, and produce the same figures as figure-at-a-time
// runs.
func TestRunFiguresSharesGoldensAcrossFigures(t *testing.T) {
	opt := Options{
		Campaign:   core.CampaignConfig{Injections: 5, Seed: 3, Workers: 4},
		Benchmarks: []string{"qsort"},
		Tools:      []string{sims.MaFINX86, sims.GeFINARM},
	}
	specs := []FigureSpec{Figures[0], Figures[4]} // rf.int and lsq.data
	cache := core.NewGoldenCache()
	opt.GoldenCache = cache
	fds, err := RunFigures(specs, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fds) != 2 {
		t.Fatalf("figures %d, want 2", len(fds))
	}
	if got, want := cache.Runs(), 2; got != want {
		t.Fatalf("golden runs = %d, want %d (2 rows, shared across 2 figures)", got, want)
	}
	for i, spec := range specs {
		solo, err := RunFigure(spec, Options{
			Campaign:   core.CampaignConfig{Injections: 5, Seed: 3, Workers: 1},
			Benchmarks: opt.Benchmarks, Tools: opt.Tools,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fds[i].Cells, solo.Cells) {
			t.Fatalf("fig %d: matrix cells differ from solo run:\n%+v\nvs\n%+v",
				spec.ID, fds[i].Cells, solo.Cells)
		}
	}
}

// The memoized LiveOnly probe must reproduce the twin-replay population
// and records exactly.
func TestLiveOnlyMatchesTwinProbeReference(t *testing.T) {
	opt := Options{
		Campaign:   core.CampaignConfig{Injections: 6, Seed: 2, Workers: 2, LiveOnly: true},
		Benchmarks: []string{"qsort"},
		Tools:      []string{sims.GeFINX86},
	}
	want := serialReference(t, sims.GeFINX86, "qsort", "l2.data", opt)
	res, err := RunCampaignFor(sims.GeFINX86, "qsort", "l2.data", opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Records, want.Records) {
		t.Fatalf("LiveOnly scheduler records differ from twin-probe reference:\n%+v\nvs\n%+v",
			res.Records, want.Records)
	}
}

// One cache row per {tool, benchmark} whoever asks: a figure matrix
// keys its goldens, ladders and liveness profiles by the tool id, the
// same row every other caller of the cache uses, and builds each once.
func TestRunFiguresKeepsOneCacheRowPerRow(t *testing.T) {
	cache := core.NewGoldenCache()
	opt := Options{
		Campaign: core.CampaignConfig{
			Injections: 6, Seed: 3, Workers: 2,
			CheckpointLadder: 3, Prune: true,
		},
		Benchmarks:  []string{"qsort"},
		Tools:       []string{sims.GeFINX86, sims.GeFINARM},
		GoldenCache: cache,
	}
	if _, err := RunFigures([]FigureSpec{Figures[0], Figures[1]}, opt, nil); err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	cache.Observe(&snap)
	const rows = 2
	if snap.CacheRows != rows || snap.GoldenRuns != rows || snap.LadderBuilds != rows || snap.ProfileBuilds < 1 {
		t.Fatalf("cache after 2 figures x %d rows: %d rows, %d golden runs, %d ladder builds, %d profile builds; want %d, %d, %d, >= 1",
			rows, snap.CacheRows, snap.GoldenRuns, snap.LadderBuilds, snap.ProfileBuilds, rows, rows, rows)
	}
}

// Every artifact of a figure campaign names the campaign the same way:
// the trace's campaign key, the divergence file and the log header's
// tool are the tool id the log file is stored under. The run uses the
// window and divergence knobs, which must take effect.
func TestRunFiguresArtifactsShareTheCampaignKey(t *testing.T) {
	repo, err := core.NewLogsRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	collector := telemetry.New()
	trace := telemetry.NewTraceSink()
	collector.AddSink(trace)
	opt := Options{
		Campaign: core.CampaignConfig{
			Injections: 6, Seed: 3, Workers: 2,
			DetailWindow: true, WindowPre: 2000, WindowPost: 1000, Divergence: true,
		},
		Benchmarks: []string{"qsort"},
		Tools:      []string{sims.GeFINX86},
		Logs:       repo,
		Telemetry:  collector,
	}
	if _, err := RunFigures([]FigureSpec{Figures[0], Figures[1]}, opt, nil); err != nil {
		t.Fatal(err)
	}
	stored, err := repo.Campaigns()
	if err != nil || len(stored) != 2 {
		t.Fatalf("stored campaigns %v, %v", stored, err)
	}
	rowsOf := make(map[string]int)
	for _, row := range trace.Records() {
		rowsOf[row.Campaign]++
	}
	for _, key := range stored {
		if rowsOf[key] != 6 {
			t.Fatalf("trace rows per campaign %v: want 6 under each stored key %v", rowsOf, stored)
		}
		res, err := repo.Load(key)
		if err != nil {
			t.Fatal(err)
		}
		if got := fault.CampaignKey(res.Golden.Tool, res.Golden.Benchmark, res.Golden.Structure); got != key {
			t.Fatalf("log %s carries the header of campaign %s", key, got)
		}
		f, err := os.Open(repo.DivergencePath(key))
		if err != nil {
			t.Fatalf("divergence file of %s: %v", key, err)
		}
		recs, err := divergence.ReadRecords(f)
		f.Close()
		if err != nil || len(recs) != 6 {
			t.Fatalf("divergence file of %s: %d records, %v", key, len(recs), err)
		}
		for _, rec := range recs {
			if rec.Campaign != key {
				t.Fatalf("divergence file of %s holds a record of %s", key, rec.Campaign)
			}
		}
	}
	if len(rowsOf) != 2 {
		t.Fatalf("trace names campaigns %v, logs are stored under %v", rowsOf, stored)
	}
	if snap := collector.Snapshot(); snap.WindowedRuns == 0 {
		t.Fatal("the detail-window knobs were dropped: no run was windowed")
	}
}

// RunFigures records the matrix's spans on opt.Tracer: one run span per
// simulated mask, under its campaign's key.
func TestRunFiguresEmitsRunSpans(t *testing.T) {
	tracer := telemetry.NewTracer("t-figures", "c")
	buf := telemetry.NewSpanBuffer()
	tracer.AddSink(buf)
	opt := Options{
		Campaign:   core.CampaignConfig{Injections: 4, Seed: 3, Workers: 2},
		Benchmarks: []string{"qsort"},
		Tools:      []string{sims.GeFINX86},
		Tracer:     tracer,
	}
	specs := []FigureSpec{Figures[0], Figures[1]}
	if _, err := RunFigures(specs, opt, nil); err != nil {
		t.Fatal(err)
	}
	runs := make(map[string]int)
	for _, sp := range buf.Spans() {
		if sp.Kind == telemetry.SpanRun {
			runs[sp.Campaign]++
		}
	}
	for _, spec := range specs {
		if key := fault.CampaignKey(sims.GeFINX86, "qsort", spec.Structure); runs[key] != 4 {
			t.Fatalf("run spans per campaign %v: want 4 under %s", runs, key)
		}
	}
	if len(runs) != len(specs) {
		t.Fatalf("run spans per campaign %v: want %d campaigns", runs, len(specs))
	}
}
