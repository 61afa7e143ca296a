package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestConcurrentAggregator hammers the collector from many goroutines
// and checks every snapshot total against the exactly-known ground
// truth. Run under -race this is the aggregator's thread-safety proof.
func TestConcurrentAggregator(t *testing.T) {
	const (
		goroutines    = 16
		runsPerWorker = 500
	)
	classes := []string{"Masked", "SDC", "DUE", "Timeout"}

	c := New()
	c.Start(goroutines)
	c.AddQueued(goroutines * runsPerWorker)
	camp := c.Campaign("k", "gefin-x86", "qsort", "rf.int")

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < runsPerWorker; i++ {
				c.RunStarted()
				ev := RunEvent{
					Campaign:      "k",
					Class:         classes[(g+i)%len(classes)],
					Status:        "completed",
					Cycles:        7,
					Wall:          time.Microsecond,
					WatchedReads:  10,
					WatchedWrites: 4,
					ObservedReads: 2,
				}
				if i%5 == 0 {
					ev.EarlyStop = "overwritten"
				}
				c.RunDone(camp, ev)
			}
		}(g)
	}
	wg.Wait()

	s := c.Snapshot()
	total := uint64(goroutines * runsPerWorker)
	if s.RunsQueued != total || s.RunsStarted != total || s.RunsDone != total {
		t.Fatalf("queued/started/done = %d/%d/%d, want all %d",
			s.RunsQueued, s.RunsStarted, s.RunsDone, total)
	}
	if s.SimCycles != 7*total {
		t.Fatalf("SimCycles = %d, want %d", s.SimCycles, 7*total)
	}
	if want := total / 5; s.EarlyStops != want {
		t.Fatalf("EarlyStops = %d, want %d", s.EarlyStops, want)
	}
	if s.WatchedReads != 10*total || s.WatchedWrites != 4*total || s.ObservedReads != 2*total || s.ObservedWrites != 0 {
		t.Fatalf("watched/observed counters = %d/%d/%d/%d",
			s.WatchedReads, s.WatchedWrites, s.ObservedReads, s.ObservedWrites)
	}
	// 12 of 14 watched accesses per run skip the observation slow path.
	if want := 1 - 2.0/14.0; s.FastPathRate < want-1e-9 || s.FastPathRate > want+1e-9 {
		t.Fatalf("FastPathRate = %v, want %v", s.FastPathRate, want)
	}
	var sum uint64
	for _, cls := range classes {
		n := s.ClassCounts[cls]
		if n != total/uint64(len(classes)) {
			t.Fatalf("ClassCounts[%s] = %d, want %d", cls, n, total/uint64(len(classes)))
		}
		sum += n
	}
	if sum != total {
		t.Fatalf("class counts sum to %d, want %d", sum, total)
	}
	if s.StatusCounts["completed"] != total {
		t.Fatalf("StatusCounts[completed] = %d, want %d", s.StatusCounts["completed"], total)
	}
	if len(s.Campaigns) != 1 {
		t.Fatalf("got %d campaign rows, want 1", len(s.Campaigns))
	}
	row := s.Campaigns[0]
	if row.Runs != total || row.Cycles != 7*total {
		t.Fatalf("campaign row runs/cycles = %d/%d, want %d/%d", row.Runs, row.Cycles, total, 7*total)
	}
}

// TestCampaignRegistrationIdempotent checks that re-registering a key
// returns the same row rather than splitting its counters.
func TestCampaignRegistrationIdempotent(t *testing.T) {
	c := New()
	a := c.Campaign("k", "t", "b", "s")
	b := c.Campaign("k", "t", "b", "s")
	if a != b {
		t.Fatal("same key registered twice returned distinct rows")
	}
	c.RunDone(a, RunEvent{Class: "Masked"})
	c.RunDone(b, RunEvent{Class: "Masked"})
	if got := c.Snapshot().Campaigns[0].Runs; got != 2 {
		t.Fatalf("campaign runs = %d, want 2", got)
	}
}

// TestCacheSource checks lazy golden-cache stats and the derived rate.
func TestCacheSource(t *testing.T) {
	c := New()
	if s := c.Snapshot(); s.GoldenRuns != 0 || s.GoldenHitRate != 0 {
		t.Fatalf("snapshot before source: runs=%d rate=%v", s.GoldenRuns, s.GoldenHitRate)
	}
	c.SetCacheSource(func(s *Snapshot) { s.GoldenRuns, s.GoldenHits = 3, 9 })
	s := c.Snapshot()
	if s.GoldenRuns != 3 || s.GoldenHits != 9 {
		t.Fatalf("golden = %d+%d, want 3+9", s.GoldenRuns, s.GoldenHits)
	}
	if s.GoldenHitRate != 0.75 {
		t.Fatalf("GoldenHitRate = %v, want 0.75", s.GoldenHitRate)
	}
}

// TestSnapshotJSONRoundTrip checks the JSON rendering parses back into
// an identical snapshot.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	c := New()
	c.Start(2)
	c.AddQueued(1)
	c.RunStarted()
	cs := c.Campaign("k", "mafin-x86", "sha", "l1d.data")
	c.RunDone(cs, RunEvent{Class: "SDC", Status: "completed", Cycles: 42, WatchedReads: 5, ObservedReads: 1})
	s := c.Snapshot()

	b, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if back.RunsDone != 1 || back.ClassCounts["SDC"] != 1 || back.SimCycles != 42 {
		t.Fatalf("round-trip lost counters: %+v", back)
	}
	if len(back.Campaigns) != 1 || back.Campaigns[0].Benchmark != "sha" {
		t.Fatalf("round-trip lost campaign rows: %+v", back.Campaigns)
	}
}

// TestClassOrdering checks the paper's presentation order for known
// classes and the alphabetical tail for unknown ones.
func TestClassOrdering(t *testing.T) {
	s := Snapshot{ClassCounts: map[string]uint64{
		"Zeta": 1, "SDC": 2, "Masked": 3, "Assert": 4, "Alpha": 5,
	}}
	want := "Masked=3 SDC=2 Assert=4 Alpha=5 Zeta=1"
	if got := s.ClassString(); got != want {
		t.Fatalf("ClassString = %q, want %q", got, want)
	}
}

// TestWritePrometheus checks the exposition contains the labeled
// counters and the campaign rows, and is deterministic across calls.
func TestWritePrometheus(t *testing.T) {
	c := New()
	c.Start(1)
	cs := c.Campaign("k", "gefin-arm", "qsort", "rf.int")
	c.RunDone(cs, RunEvent{Class: "DUE", Status: "sim-crash", Cycles: 10})
	s := c.Snapshot()

	var a, b bytes.Buffer
	if err := s.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Prometheus exposition is not deterministic")
	}
	for _, want := range []string{
		"faultinject_runs_done_total 1",
		"faultinject_sim_cycles_total 10",
		`faultinject_class_total{class="DUE"} 1`,
		`faultinject_status_total{status="sim-crash"} 1`,
		`faultinject_campaign_class_total{tool="gefin-arm",benchmark="qsort",structure="rf.int",class="DUE"} 1`,
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestHandler checks /metrics, /snapshot.json, the index, and that the
// pprof mux is mounted.
func TestHandler(t *testing.T) {
	c := New()
	c.Start(1)
	c.RunDone(nil, RunEvent{Class: "Masked", Status: "completed"})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "faultinject_runs_done_total 1") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	code, body := get("/snapshot.json")
	if code != http.StatusOK {
		t.Fatalf("/snapshot.json: code=%d", code)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("/snapshot.json does not parse: %v", err)
	}
	if s.RunsDone != 1 {
		t.Fatalf("/snapshot.json RunsDone = %d, want 1", s.RunsDone)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "/debug/pprof") {
		t.Fatalf("index: code=%d body=%q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "profile") {
		t.Fatalf("/debug/pprof/: code=%d body=%q", code, body)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path: code=%d, want 404", code)
	}
}

// TestServe checks the real listener path with ":0" port selection.
func TestServe(t *testing.T) {
	c := New()
	srv, err := c.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
}

// syncWriter serializes Reporter writes for inspection.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestReporter checks periodic progress lines appear and Stop is
// idempotent and final (no lines after).
func TestReporter(t *testing.T) {
	c := New()
	c.Start(1)
	c.AddQueued(10)
	c.RunDone(nil, RunEvent{Class: "Masked", Status: "completed", Cycles: 1})

	var w syncWriter
	r := StartReporter(c, &w, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(w.String(), "runs") && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	r.Stop() // idempotent
	out := w.String()
	if !strings.Contains(out, "1/10 runs") {
		t.Fatalf("progress output missing run counts: %q", out)
	}
	if !strings.Contains(out, "Masked=1") {
		t.Fatalf("progress output missing class histogram: %q", out)
	}
	time.Sleep(5 * time.Millisecond)
	if w.String() != out {
		t.Fatal("reporter printed after Stop")
	}
}

// TestTraceSinkDeterministic inserts events in scrambled order across
// goroutines and checks the flushed bytes are identical to a serial
// in-order flush — the worker-count independence property.
func TestTraceSinkDeterministic(t *testing.T) {
	mkEvent := func(camp string, id int) RunEvent {
		return RunEvent{
			Campaign: camp,
			MaskID:   id,
			Sites:    []fault.Site{{Structure: "rf.int", Entry: id, Bit: id % 8, Cycle: uint64(id) * 3}},
			Status:   "completed",
			Class:    "Masked",
			Cycles:   uint64(100 + id),
			Observed: id%2 == 0,
		}
	}

	serial := NewTraceSink()
	for _, camp := range []string{"a", "b"} {
		for id := 0; id < 50; id++ {
			serial.RunEvent(mkEvent(camp, id))
		}
	}
	var want bytes.Buffer
	if err := serial.Flush(&want); err != nil {
		t.Fatal(err)
	}

	scrambled := NewTraceSink()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				camp := "a"
				if g >= 2 {
					camp = "b"
				}
				scrambled.RunEvent(mkEvent(camp, (g%2)*25+i))
			}
		}(g)
	}
	wg.Wait()
	if scrambled.Len() != 100 {
		t.Fatalf("scrambled sink has %d records, want 100", scrambled.Len())
	}
	var got bytes.Buffer
	if err := scrambled.Flush(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("trace bytes depend on insertion order")
	}
}

// TestCollectorSinkFanout checks every sink sees every event exactly
// once.
func TestCollectorSinkFanout(t *testing.T) {
	c := New()
	a, b := NewTraceSink(), NewTraceSink()
	c.AddSink(a)
	c.AddSink(b)
	for i := 0; i < 10; i++ {
		c.RunDone(nil, RunEvent{Campaign: "k", MaskID: i, Class: "Masked"})
	}
	if a.Len() != 10 || b.Len() != 10 {
		t.Fatalf("sink lengths = %d/%d, want 10/10", a.Len(), b.Len())
	}
}

// TestSummaryLine spot-checks the final one-line campaign summary.
func TestSummaryLine(t *testing.T) {
	s := Snapshot{
		RunsDone:       240,
		ElapsedSeconds: 2.0,
		RunsPerSec:     120,
		McyclesPerSec:  3.5,
		ClassCounts:    map[string]uint64{"Masked": 200, "SDC": 40},
	}
	want := "240 runs in 2.0s (120.0 runs/s, 3.5 Mcyc/s): Masked=200 SDC=40"
	if got := s.SummaryLine(); got != want {
		t.Fatalf("SummaryLine = %q, want %q", got, want)
	}
}

// TestProgressLineShape checks the optional segments only appear when
// their counters are live.
func TestProgressLineShape(t *testing.T) {
	bare := Snapshot{ElapsedSeconds: 1, RunsDone: 1, RunsQueued: 2}
	line := bare.ProgressLine()
	for _, banned := range []string{"util", "golden", "fastpath"} {
		if strings.Contains(line, banned) {
			t.Errorf("bare progress line has %q segment: %q", banned, line)
		}
	}
	full := Snapshot{
		ElapsedSeconds: 1, RunsDone: 1, RunsQueued: 2, Workers: 4,
		GoldenRuns: 1, GoldenHits: 3, WatchedReads: 10, ObservedReads: 1,
		FastPathRate: 0.9, WorkerUtilization: 0.5,
		ClassCounts: map[string]uint64{"SDC": 1},
	}
	line = full.ProgressLine()
	for _, want := range []string{"util 50%", "golden 1+3hit", "fastpath 90.0%", "SDC=1"} {
		if !strings.Contains(line, want) {
			t.Errorf("full progress line missing %q: %q", want, line)
		}
	}
}

// TestZeroElapsedNoNaN guards the rate math against division by zero
// before Start.
func TestZeroElapsedNoNaN(t *testing.T) {
	c := New()
	c.RunDone(nil, RunEvent{Class: "Masked"})
	s := c.Snapshot()
	b, err := s.JSON()
	if err != nil {
		t.Fatalf("snapshot with zero elapsed does not serialize: %v", err)
	}
	if strings.Contains(string(b), "NaN") || strings.Contains(string(b), "Inf") {
		t.Fatalf("snapshot has non-finite gauges: %s", b)
	}
}

// TestResumedAndPanicCounters pins the crash-safety counters: resumed
// events count toward run totals and class histograms (so resumed
// campaign snapshots still balance) but not toward simulated cycles,
// and both counters surface in the progress line and the Prometheus
// exposition.
func TestResumedAndPanicCounters(t *testing.T) {
	c := New()
	c.Start(2)
	c.AddQueued(2)
	camp := c.Campaign("k", "t", "b", "s")
	c.RunStarted()
	c.RunDone(camp, RunEvent{Campaign: "k", Class: "Masked", Status: "completed", Cycles: 100})
	c.RunStarted()
	c.RunDone(camp, RunEvent{Campaign: "k", Class: "SDC", Status: "completed", Cycles: 100, Resumed: true})
	c.PanicContained()
	s := c.Snapshot()
	if s.RunsDone != 2 || s.Resumed != 1 || s.PanicsContained != 1 {
		t.Fatalf("done/resumed/panics = %d/%d/%d, want 2/1/1", s.RunsDone, s.Resumed, s.PanicsContained)
	}
	if s.SimCycles != 100 {
		t.Fatalf("SimCycles = %d, want 100 (resumed cycles are another process's work)", s.SimCycles)
	}
	if s.ClassCounts["SDC"] != 1 || s.ClassCounts["Masked"] != 1 {
		t.Fatalf("class counts %v, want the resumed run included", s.ClassCounts)
	}
	line := s.ProgressLine()
	for _, want := range []string{"resumed 1", "panics 1"} {
		if !strings.Contains(line, want) {
			t.Fatalf("progress line %q lacks %q", line, want)
		}
	}
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"faultinject_resumed_total 1", "faultinject_panics_contained_total 1"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("prometheus output lacks %q", want)
		}
	}
}
