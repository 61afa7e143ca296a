package telemetry

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestPrometheusCompleteness cross-checks metricDefs against the
// Snapshot struct by reflection, both ways: every numeric Snapshot
// field must have a metric definition (a new counter without HELP/TYPE
// fails here, not in a scrape), and every definition must name a real
// numeric field with a well-formed type and help line.
func TestPrometheusCompleteness(t *testing.T) {
	byField := make(map[string]metricDef, len(metricDefs))
	byName := make(map[string]bool, len(metricDefs))
	for _, d := range metricDefs {
		if _, dup := byField[d.field]; dup {
			t.Errorf("metricDefs: field %s defined twice", d.field)
		}
		byField[d.field] = d
		if byName[d.name] {
			t.Errorf("metricDefs: metric name %s used twice", d.name)
		}
		byName[d.name] = true
		if d.typ != "counter" && d.typ != "gauge" {
			t.Errorf("metricDefs: %s has type %q, want counter or gauge", d.name, d.typ)
		}
		if strings.TrimSpace(d.help) == "" {
			t.Errorf("metricDefs: %s has no help line", d.name)
		}
		if d.typ == "counter" && !strings.HasSuffix(d.name, "_total") {
			t.Errorf("metricDefs: counter %s does not end in _total", d.name)
		}
	}

	st := reflect.TypeOf(Snapshot{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		switch f.Type.Kind() {
		case reflect.Uint64, reflect.Int, reflect.Float64:
			d, ok := byField[f.Name]
			if !ok {
				t.Errorf("Snapshot field %s has no metricDefs entry: it would be exported without HELP/TYPE", f.Name)
				continue
			}
			delete(byField, f.Name)
			_ = d
		case reflect.Map, reflect.Slice:
			// StatusCounts/ClassCounts/Campaigns render as labeled
			// families with their own hardcoded HELP/TYPE blocks.
		default:
			t.Errorf("Snapshot field %s has unhandled kind %s", f.Name, f.Type.Kind())
		}
	}
	for field := range byField {
		t.Errorf("metricDefs entry %s names no Snapshot field", field)
	}
}

// TestPrometheusEveryMetricHasHelpAndType scrapes a rendered exposition
// and checks each emitted sample line is preceded by its HELP and TYPE.
func TestPrometheusEveryMetricHasHelpAndType(t *testing.T) {
	c := New()
	c.Start(2)
	cs := c.Campaign("k", "gefin-x86", "qsort", "rf.int")
	c.RunDone(cs, RunEvent{Class: "SDC", Status: "completed", Cycles: 5, Diverged: true})
	var buf bytes.Buffer
	if err := c.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	helped := map[string]bool{}
	typed := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			helped[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		if !helped[name] {
			t.Errorf("sample %q emitted without a preceding # HELP", line)
		}
		if !typed[name] {
			t.Errorf("sample %q emitted without a preceding # TYPE", line)
		}
	}
	if !helped["faultinject_diverged_runs_total"] {
		t.Error("diverged_runs_total missing from the exposition")
	}
}

// TestMergeSnapshots checks the fleet aggregation: counters add,
// elapsed is the fleet maximum, utilization is reconstructed from
// per-worker busy seconds, campaign rows merge by key and sort.
func TestMergeSnapshots(t *testing.T) {
	a := Snapshot{
		ElapsedSeconds: 10, Workers: 2,
		RunsQueued: 6, RunsStarted: 6, RunsDone: 6, DivergedRuns: 2,
		SimCycles: 600, GoldenRuns: 1, GoldenHits: 2,
		WatchedReads: 100, ObservedReads: 10,
		WorkerUtilization: 0.5, // 10s × 2 workers × 0.5 = 10 busy-seconds
		StatusCounts:      map[string]uint64{"completed": 6},
		ClassCounts:       map[string]uint64{"Masked": 4, "SDC": 2},
		Campaigns: []CampaignSnapshot{
			{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int", Runs: 6, Cycles: 600,
				Classes: map[string]uint64{"Masked": 4, "SDC": 2}},
		},
	}
	b := Snapshot{
		ElapsedSeconds: 8, Workers: 2,
		RunsQueued: 4, RunsStarted: 4, RunsDone: 4, DivergedRuns: 1,
		SimCycles: 400, GoldenRuns: 1, GoldenHits: 1,
		WatchedReads: 50, ObservedReads: 5,
		WorkerUtilization: 1.0, // 8s × 2 workers × 1.0 = 16 busy-seconds
		StatusCounts:      map[string]uint64{"completed": 4},
		ClassCounts:       map[string]uint64{"Masked": 4},
		Campaigns: []CampaignSnapshot{
			{Tool: "gefin-x86", Benchmark: "qsort", Structure: "lsq.data", Runs: 2, Cycles: 100,
				Classes: map[string]uint64{"Masked": 2}},
			{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int", Runs: 2, Cycles: 300,
				Classes: map[string]uint64{"Masked": 2}},
		},
	}
	m := MergeSnapshots(a, b)

	if m.RunsDone != 10 || m.RunsQueued != 10 || m.DivergedRuns != 3 || m.SimCycles != 1000 {
		t.Fatalf("summed counters wrong: %+v", m)
	}
	if m.ElapsedSeconds != 10 || m.Workers != 4 {
		t.Fatalf("elapsed/workers = %v/%d, want 10/4", m.ElapsedSeconds, m.Workers)
	}
	// 26 busy-seconds over 10s × 4 workers = 0.65.
	if diff := m.WorkerUtilization - 0.65; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("WorkerUtilization = %v, want 0.65", m.WorkerUtilization)
	}
	if m.RunsPerSec != 1.0 {
		t.Fatalf("RunsPerSec = %v, want 1.0", m.RunsPerSec)
	}
	if m.GoldenHitRate != 0.6 {
		t.Fatalf("GoldenHitRate = %v, want 0.6", m.GoldenHitRate)
	}
	if m.ClassCounts["Masked"] != 8 || m.ClassCounts["SDC"] != 2 || m.StatusCounts["completed"] != 10 {
		t.Fatalf("histograms wrong: %v %v", m.ClassCounts, m.StatusCounts)
	}
	if len(m.Campaigns) != 2 {
		t.Fatalf("got %d campaign rows, want 2 (merged by key)", len(m.Campaigns))
	}
	// Sorted by {tool, benchmark, structure}: lsq.data before rf.int.
	if m.Campaigns[0].Structure != "lsq.data" || m.Campaigns[1].Structure != "rf.int" {
		t.Fatalf("campaign rows unsorted: %+v", m.Campaigns)
	}
	if m.Campaigns[1].Runs != 8 || m.Campaigns[1].Cycles != 900 || m.Campaigns[1].Classes["Masked"] != 6 {
		t.Fatalf("rf.int row not merged: %+v", m.Campaigns[1])
	}

	// Merging nothing yields a zero snapshot without NaNs.
	z := MergeSnapshots()
	if s := fmt.Sprint(z.RunsPerSec, z.WorkerUtilization, z.GoldenHitRate); strings.Contains(s, "NaN") {
		t.Fatalf("empty merge has non-finite gauges: %s", s)
	}
}

// TestMergeSnapshotsEqualsSingleCollector: merging per-worker snapshots
// that partition one campaign's events must reproduce the counters a
// single collector fed all events would report — the property behind
// the coordinator's /snapshot.json equalling the sum of its workers.
func TestMergeSnapshotsEqualsSingleCollector(t *testing.T) {
	mkEvent := func(i int) RunEvent {
		cls := "Masked"
		if i%3 == 0 {
			cls = "SDC"
		}
		return RunEvent{Campaign: "k", MaskID: i, Class: cls, Status: "completed",
			Cycles: uint64(10 * (i + 1)), WatchedReads: 7, ObservedReads: 1, Diverged: i%4 == 0,
			Windowed: true, WindowExited: i%5 == 1, WindowHeld: i%5 == 0}
	}

	whole := New()
	whole.Start(2)
	wholeCS := whole.Campaign("k", "t", "b", "s")
	var workers [2]*Collector
	var wcs [2]*CampaignStats
	for w := range workers {
		workers[w] = New()
		workers[w].Start(1)
		wcs[w] = workers[w].Campaign("k", "t", "b", "s")
	}
	for i := 0; i < 20; i++ {
		ev := mkEvent(i)
		whole.AddQueued(1)
		whole.RunStarted()
		whole.RunDone(wholeCS, ev)
		w := i % 2
		workers[w].AddQueued(1)
		workers[w].RunStarted()
		workers[w].RunDone(wcs[w], ev)
	}
	want := whole.Snapshot()
	got := MergeSnapshots(workers[0].Snapshot(), workers[1].Snapshot())

	type counters struct {
		Done, Cycles, Diverged, Watched, Observed uint64
		Windowed, Exits, Holds                    uint64
		SDC, Masked                               uint64
		CampRuns                                  uint64
	}
	pick := func(s Snapshot) counters {
		return counters{s.RunsDone, s.SimCycles, s.DivergedRuns, s.WatchedReads, s.ObservedReads,
			s.WindowedRuns, s.WindowExits, s.WindowHolds,
			s.ClassCounts["SDC"], s.ClassCounts["Masked"], s.Campaigns[0].Runs}
	}
	if want.WindowHolds != 4 || want.WindowExits != 4 {
		t.Fatalf("single collector counts %d holds and %d exits among 20 windowed runs, want 4 and 4", want.WindowHolds, want.WindowExits)
	}
	if pick(want) != pick(got) {
		t.Fatalf("merged fleet counters differ from the single-collector truth:\nwant %+v\ngot  %+v", pick(want), pick(got))
	}
}
