package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bitarray"
	"repro/internal/divergence"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// lastEvent is a telemetry sink keeping the events it saw.
type lastEvent struct{ evs []telemetry.RunEvent }

func (l *lastEvent) RunEvent(ev telemetry.RunEvent) { l.evs = append(l.evs, ev) }

// TestCommitProjections pins what a settled mask becomes for each of
// the five provenances, built by their constructors: the journal line,
// trace row and run-end event of CellSinks.Commit, with every sink
// attached, and the divergence row the cell's ledger keeps.
func TestCommitProjections(t *testing.T) {
	const key = "gefin-x86/qsort/rf.int"
	site := func(entry int, cycle uint64) []fault.Site {
		return []fault.Site{{Structure: "rf.int", Entry: entry, Bit: 3, Model: fault.ModelTransient, Cycle: cycle}}
	}
	masks := []fault.Mask{
		{ID: 10, Sites: site(1, 100), Weight: 2},
		{ID: 11, Sites: site(2, 200)},
		{ID: 12, Sites: site(1, 101), Weight: 4},
		{ID: 13, Sites: site(5, 500), Weight: 1.5},
	}
	golden := GoldenInfo{OutputHash: "600d", Cycles: 1000}
	simRec := LogRecord{
		MaskID: 10, Sites: masks[0].Sites, Status: RunEarlyMasked.String(),
		OutputHash: "600d", OutputMatch: true, Cycles: 700, Committed: 650, Weight: 2,
	}
	simStats := &runStats{
		faultStatus: bitarray.StatusOverwritten, observed: true, firstObs: 120,
		reads: 40, writes: 30, obsReads: 4, obsWrites: 3,
		restored: true, rungCycle: 64,
		windowed: true, windowEntered: true, windowExited: true, fastSteps: 900, detailCycles: 55,
		footprint: true, touches: 2, lastTouch: 130, corrupt: []string{"rf.int"},
	}
	sim := simulated(0, simRec, simStats, 5*time.Millisecond)
	sim.Diverged, sim.DivergeCycle, sim.DivergeIndex = true, 150, 41 // what an attached commit probe reports

	jpath := filepath.Join(t.TempDir(), "run.journal.jsonl")
	jnl, err := fault.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	journalLines := func() []string {
		b, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		return strings.SplitAfter(string(b), "\n") // n lines, then ""
	}

	// The resumed outcome is what ReplayJournal makes of the line the
	// simulated outcome's commit wrote, so it is built inside the loop.
	cases := []struct {
		name    string
		run     func() ShardRun
		journal string // the line the commit appends; "" for none
		trace   string
		div     divergence.Record
		event   telemetry.RunEvent
	}{
		{
			name: "simulated",
			run:  func() ShardRun { return sim },
			journal: `{"schema_version":3,"campaign":"gefin-x86/qsort/rf.int","mask_id":10,` +
				`"record":{"mask_id":10,"sites":[{"core":0,"structure":"rf.int","entry":1,"bit":3,"model":"transient","cycle":100}],"status":"early-masked","exit_code":0,"output_hash":"600d","output_match":true,"cycles":700,"committed":650,"weight":2},` +
				`"observed":true,"first_obs_cycle":120,"early_stop":"overwritten",` +
				`"fault_touches":2,"last_touch_cycle":130,"corrupt_structures":["rf.int"],"diverged":true,"diverge_cycle":150,"diverge_index":41}`,
			trace: `{"schema_version":1,"campaign":"gefin-x86/qsort/rf.int","mask_id":10,"sites":[{"core":0,"structure":"rf.int","entry":1,"bit":3,"model":"transient","cycle":100}],` +
				`"status":"early-masked","class":"Masked","cycles":700,"observed":true,"first_obs_cycle":120,"early_stop":"overwritten"}`,
			div: divergence.Record{
				Campaign: key, MaskID: 10, Status: "early-masked", Class: "Masked", Cycles: 700,
				Observed: true, FirstObsCycle: 120, FaultTouches: 2, LastTouchCycle: 130, CorruptStructures: []string{"rf.int"},
				Diverged: true, DivergeCycle: 150, DivergeIndex: 41, PropagationCycles: 30, TimeToOutcome: 580,
			},
			event: telemetry.RunEvent{
				MaskID: 10, Sites: masks[0].Sites, Status: "early-masked", Class: "Masked", Cycles: 700, Wall: 5 * time.Millisecond,
				Observed: true, FirstObsCycle: 120, EarlyStop: "overwritten",
				WatchedReads: 40, WatchedWrites: 30, ObservedReads: 4, ObservedWrites: 3,
				RepMask: -1, LadderRestored: true, RungCycle: 64,
				Windowed: true, WindowEntered: true, WindowExited: true, FastSteps: 900, DetailCycles: 55,
				Diverged: true,
			},
		},
		{
			name: "dead",
			run:  func() ShardRun { return dead(1, masks[1], golden) },
			trace: `{"schema_version":1,"campaign":"gefin-x86/qsort/rf.int","mask_id":11,"sites":[{"core":0,"structure":"rf.int","entry":2,"bit":3,"model":"transient","cycle":200}],` +
				`"status":"pruned","class":"Masked","cycles":0,"observed":false,"pruned":"dead"}`,
			div: divergence.Record{Campaign: key, MaskID: 11, Status: "pruned", Class: "Masked", Pruned: "dead"},
			event: telemetry.RunEvent{
				MaskID: 11, Sites: masks[1].Sites, Status: "pruned", Class: "Masked", Pruned: "dead", RepMask: -1,
			},
		},
		{
			// The representative's verdict under the replica's own identity;
			// none of the representative's extras.
			name: "replicated",
			run:  func() ShardRun { return replicated(2, masks[2], 0).Resolve(simRec) },
			trace: `{"schema_version":1,"campaign":"gefin-x86/qsort/rf.int","mask_id":12,"sites":[{"core":0,"structure":"rf.int","entry":1,"bit":3,"model":"transient","cycle":101}],` +
				`"status":"early-masked","class":"Masked","cycles":700,"observed":false,"pruned":"replicated","rep_mask":10}`,
			div: divergence.Record{Campaign: key, MaskID: 12, Status: "early-masked", Class: "Masked", Cycles: 700, Pruned: "replicated"},
			event: telemetry.RunEvent{
				MaskID: 12, Sites: masks[2].Sites, Status: "early-masked", Class: "Masked", Cycles: 700,
				Pruned: "replicated", RepMask: 10,
			},
		},
		{
			name: "stopped",
			run:  func() ShardRun { return StoppedRun(3, masks[3]) },
			journal: `{"schema_version":2,"campaign":"gefin-x86/qsort/rf.int","mask_id":13,` +
				`"record":{"mask_id":13,"sites":[{"core":0,"structure":"rf.int","entry":5,"bit":3,"model":"transient","cycle":500}],"status":"stopped-early","exit_code":0,"output_hash":"","output_match":false,"cycles":0,"committed":0,"weight":1.5},` +
				`"stopped_early":true}`,
			trace: `{"schema_version":2,"campaign":"gefin-x86/qsort/rf.int","mask_id":13,"sites":[{"core":0,"structure":"rf.int","entry":5,"bit":3,"model":"transient","cycle":500}],` +
				`"status":"stopped-early","class":"Stopped","cycles":0,"observed":false,"stopped_early":true}`,
			div: divergence.Record{Campaign: key, MaskID: 13, Status: "stopped-early", Class: "Stopped"},
			event: telemetry.RunEvent{
				MaskID: 13, Sites: masks[3].Sites, Status: "stopped-early", Class: "Stopped", RepMask: -1, Stopped: true,
			},
		},
		{
			// Replayed from the simulated case's journal line: the record,
			// the trace and the divergence provenance survive, the extras of
			// the run do not.
			name: "resumed",
			run: func() ShardRun {
				entries, err := fault.ReadJournalFile(jpath)
				if err != nil {
					t.Fatal(err)
				}
				runs, err := ReplayJournal(key, entries, masks)
				if err != nil {
					t.Fatal(err)
				}
				if len(runs) != 2 || !runs[3].Stopped() || !runs[3].Resumed {
					t.Fatalf("replay of the two journaled masks: %+v", runs)
				}
				return runs[0]
			},
			trace: `{"schema_version":1,"campaign":"gefin-x86/qsort/rf.int","mask_id":10,"sites":[{"core":0,"structure":"rf.int","entry":1,"bit":3,"model":"transient","cycle":100}],` +
				`"status":"early-masked","class":"Masked","cycles":700,"observed":true,"first_obs_cycle":120,"early_stop":"overwritten"}`,
			div: divergence.Record{
				Campaign: key, MaskID: 10, Status: "early-masked", Class: "Masked", Cycles: 700,
				Observed: true, FirstObsCycle: 120, FaultTouches: 2, LastTouchCycle: 130, CorruptStructures: []string{"rf.int"},
				Diverged: true, DivergeCycle: 150, DivergeIndex: 41, PropagationCycles: 30, TimeToOutcome: 580, Resumed: true,
			},
			event: telemetry.RunEvent{
				MaskID: 10, Sites: masks[0].Sites, Status: "early-masked", Class: "Masked", Cycles: 700,
				Observed: true, FirstObsCycle: 120, EarlyStop: "overwritten", RepMask: -1, Resumed: true, Diverged: true,
			},
		},
	}
	for _, tc := range cases {
		col := telemetry.New()
		trace := telemetry.NewTraceSink()
		events := &lastEvent{}
		col.AddSink(trace)
		col.AddSink(events)
		sinks := CellSinks{
			Key: key, Telemetry: col, Row: col.Campaign(key, "gefin-x86", "qsort", "rf.int"),
			Journal: jnl,
		}
		before := len(journalLines())
		run := tc.run()
		if err := sinks.Commit(run, false); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		after := journalLines()
		appended := after[before-1 : len(after)-1]
		switch {
		case tc.journal == "" && len(appended) != 0:
			t.Errorf("%s: committing appended to the journal: %q", tc.name, appended)
		case tc.journal != "" && (len(appended) != 1 || appended[0] != tc.journal+"\n"):
			t.Errorf("%s: journal line\n got  %q\n want %q", tc.name, appended, tc.journal)
		}
		var tb bytes.Buffer
		if err := trace.Flush(&tb); err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSuffix(tb.String(), "\n"); got != tc.trace {
			t.Errorf("%s: trace row\n got  %s\n want %s", tc.name, got, tc.trace)
		}
		if got := run.divergenceRow(key); !reflect.DeepEqual(got, tc.div) {
			t.Errorf("%s: divergence row\n got  %+v\n want %+v", tc.name, got, tc.div)
		}
		want := tc.event
		want.Campaign, want.Tool, want.Benchmark, want.Structure = key, "gefin-x86", "qsort", "rf.int"
		if len(events.evs) != 1 || !reflect.DeepEqual(events.evs[0], want) {
			t.Errorf("%s: run-end event\n got  %+v\n want %+v", tc.name, events.evs, want)
		}
		if snap := col.Snapshot(); snap.RunsStarted != 1 || snap.RunsDone != 1 {
			t.Errorf("%s: collector counts started=%d done=%d, want 1/1", tc.name, snap.RunsStarted, snap.RunsDone)
		}
	}

	// A replica keeps its own census weight, not the representative's.
	if w := replicated(2, masks[2], 0).Resolve(simRec).Record.Weight; w != 4 {
		t.Errorf("replica record weight %v, want its own 4", w)
	}

	// A run the scheduler dispatched was counted as started then.
	col := telemetry.New()
	sinks := CellSinks{Key: key, Telemetry: col, Row: col.Campaign(key, "gefin-x86", "qsort", "rf.int")}
	if err := sinks.Commit(sim, true); err != nil {
		t.Fatal(err)
	}
	if snap := col.Snapshot(); snap.RunsStarted != 0 || snap.RunsDone != 1 {
		t.Errorf("dispatched commit: started=%d done=%d, want 0/1", snap.RunsStarted, snap.RunsDone)
	}
}

// TestReplayJournalRejectsAnotherMaskSet: one error, whoever replays.
func TestReplayJournalRejectsAnotherMaskSet(t *testing.T) {
	masks := []fault.Mask{{ID: 0, Sites: []fault.Site{{Structure: "rf.int", Entry: 1, Cycle: 10}}}}
	line := func(mask int, sites string) fault.JournalEntry {
		return fault.JournalEntry{Campaign: "k", MaskID: mask,
			Record: []byte(`{"mask_id":` + string(rune('0'+mask)) + `,"sites":` + sites + `,"status":"completed"}`)}
	}
	same := `[{"core":0,"structure":"rf.int","entry":1,"bit":0,"model":"","cycle":10}]`
	moved := `[{"core":0,"structure":"rf.int","entry":2,"bit":0,"model":"","cycle":10}]`
	if runs, err := ReplayJournal("k", []fault.JournalEntry{line(0, same), {Campaign: "other", MaskID: 7}}, masks); err != nil || len(runs) != 1 {
		t.Fatalf("matching journal: runs %v, err %v", runs, err)
	}
	for name, e := range map[string]fault.JournalEntry{"different sites": line(0, moved), "unknown mask": line(5, same)} {
		if _, err := ReplayJournal("k", []fault.JournalEntry{e}, masks); err == nil || !strings.Contains(err.Error(), "stale journal") {
			t.Errorf("%s: err %v, want a stale-journal error", name, err)
		}
	}
}

// TestWindowHeld: a hold is a windowed run that was cycle-accurate to
// the end of the program or the cycle limit — not one that handed off,
// and not one whose window ended it (early-masked, crashed).
func TestWindowHeld(t *testing.T) {
	for _, tc := range []struct {
		windowed, exited bool
		status           RunStatus
		want             bool
	}{
		{true, false, RunCompleted, true},
		{true, false, RunCycleLimit, true},
		{true, true, RunCompleted, false},
		{true, true, RunCycleLimit, false}, // the functional tail timed out
		{true, false, RunEarlyMasked, false},
		{true, false, RunProcessCrash, false},
		{false, false, RunCompleted, false},
	} {
		run := ShardRun{Windowed: tc.windowed, WindowExited: tc.exited, Record: LogRecord{Status: tc.status.String()}}
		if got := run.windowHeld(); got != tc.want {
			t.Errorf("windowed=%v exited=%v %s: held=%v, want %v", tc.windowed, tc.exited, tc.status, got, tc.want)
		}
	}
}
