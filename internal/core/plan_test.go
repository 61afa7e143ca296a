package core

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/bitarray"
	"repro/internal/fault"
)

// planSim is a deterministic toy machine the planner can ladder and
// profile: entry 0 of its one array is written every 100 cycles and read
// 50 cycles later, entry 1 is never touched, and the run is 400 cycles.
// watched counts WatchArrays calls — only an injection run makes one.
type planSim struct {
	arr     *bitarray.Array
	cycle   uint64
	out     byte
	watched *atomic.Int64
}

func (s *planSim) Name() string                    { return "Plan" }
func (s *planSim) ISA() string                     { return "x86" }
func (s *planSim) CurrentCycle() uint64            { return s.cycle }
func (s *planSim) SetEarlyStop(bool)               {}
func (s *planSim) Stats() map[string]uint64        { return map[string]uint64{} }
func (s *planSim) WatchArrays(a []*bitarray.Array) { s.watched.Add(1) }
func (s *planSim) Structures() map[string]*bitarray.Array {
	return map[string]*bitarray.Array{"r": s.arr}
}

func (s *planSim) step() {
	switch s.cycle % 100 {
	case 0:
		s.arr.WriteUint64(0, s.cycle+1)
	case 50:
		s.out ^= byte(s.arr.ReadUint64(0))
	}
	s.cycle++
}

func (s *planSim) Run(limit uint64) RunResult {
	for s.cycle < 400 && s.cycle < limit {
		s.step()
	}
	return RunResult{Status: RunCompleted, Output: []byte{s.out}, Cycles: 400, Committed: 400}
}

func (s *planSim) RunTo(target uint64) (uint64, bool, error) {
	for s.cycle < target && s.cycle < 400 {
		s.step()
	}
	return s.cycle, s.cycle >= 400, nil
}

type planSimState struct {
	cycle, word uint64
	out         byte
}

func (s *planSim) Checkpoint() (any, error) {
	return planSimState{s.cycle, s.arr.ReadUint64(0), s.out}, nil
}

func (s *planSim) Restore(state any) error {
	st := state.(planSimState)
	s.cycle, s.out = st.cycle, st.out
	s.arr.WriteUint64(0, st.word)
	return nil
}

// planSummary is the part of a cell's plan that must not depend on the
// worker count or on how the campaign is cut into shards.
type planSummary struct {
	Key             string
	Disp            []disposition
	SimOrder        []int
	Verify, WVerify []int
}

func summarize(c cellPlan) planSummary {
	verify, wverify := c.samples()
	var simOrder []int
	if c.stop != nil {
		simOrder = c.stop.sim
	}
	return planSummary{c.key, c.disp, simOrder, verify, wverify}
}

// A shard is a window of the same plan: for a prune + ladder +
// detail-window config the per-mask dispositions of shard windows of any
// size concatenate to the single-node plan's, a shard's prune-verify
// sample is the single-node sample restricted by the window rule, its
// window-verify sample is the same draw over the window's simulated
// masks, and the worker count plays no part. Nothing here simulates an
// injection.
func TestShardPlanIsAWindowOfThePlan(t *testing.T) {
	var watched atomic.Int64
	factory := Factory(func() Simulator {
		return &planSim{arr: bitarray.New("r", 2, 64), watched: &watched}
	})
	resolve := func(string, string) (Factory, error) { return factory, nil }

	const n = 30
	masks := make([]fault.Mask, n)
	for i := range masks {
		masks[i] = fault.Mask{ID: i, Sites: []fault.Site{{
			Structure: "r", Entry: i % 5 / 4, Bit: i % 3,
			Model: fault.ModelTransient, Cycle: uint64(5 + 13*i),
		}}}
	}
	cfg := CampaignConfig{
		Campaigns: []CampaignCell{{Tool: "plan", Benchmark: "b", Structure: "r", Masks: masks}},
		Workers:   1,
		Prune:     true, PruneVerify: 8,
		CheckpointLadder: 3,
		DetailWindow:     true, WindowVerify: 4,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cache := NewGoldenCache()
	specs, err := cfg.BuildSpecs(resolve, cache)
	if err != nil {
		t.Fatal(err)
	}
	planOf := func(cfg CampaignConfig, att Attach, windows []maskWindow) cellPlan {
		t.Helper()
		p, err := planMatrix(cfg, specs, att, cache, windows)
		if err != nil {
			t.Fatal(err)
		}
		return p.cells[0]
	}

	whole := planOf(cfg, Attach{}, nil)
	if len(whole.rungs) != 3 || whole.prune == nil {
		t.Fatalf("plan has %d rungs and prune plan %v; want 3 rungs and a plan", len(whole.rungs), whole.prune)
	}
	kinds := map[dispKind]int{}
	for _, d := range whole.disp {
		kinds[d.kind]++
	}
	if kinds[dispSimulate] == 0 || kinds[dispDead] == 0 || kinds[dispReplica] == 0 || kinds[dispOutOfWindow] != 0 {
		t.Fatalf("dispositions %v: want simulated, dead and replicated masks and none out of window", kinds)
	}
	wholeVerify, wholeWVerify := whole.samples()
	t.Logf("dispositions by kind %v, prune-verify %v, window-verify %v", kinds, wholeVerify, wholeWVerify)
	if len(wholeVerify) == 0 || len(wholeWVerify) == 0 {
		t.Fatalf("verify samples %v / %v: want both drawn", wholeVerify, wholeWVerify)
	}
	// A dead mask's check is exact (no window), a replica's runs under
	// the campaign's policy against its representative's record, and a
	// window-verify check re-runs its own mask without the exit.
	for _, k := range whole.checks {
		d, ok := whole.disp[k.mask], false
		switch {
		case !k.prune:
			ok = d.kind == dispSimulate && k.ref == k.mask && k.win != nil && k.win.noExit
		case d.kind == dispDead:
			ok = k.ref == k.mask && k.win == nil
		default:
			ok = d.kind == dispReplica && k.ref == d.rep && k.win != nil && !k.win.noExit
		}
		if !ok {
			t.Fatalf("check %+v of a mask disposed %+v", k, d)
		}
	}

	wide := cfg
	wide.Workers = 7
	if got := planOf(wide, Attach{}, nil); !reflect.DeepEqual(summarize(got), summarize(whole)) {
		t.Fatalf("plan depends on Workers:\n%+v\nvs\n%+v", summarize(got), summarize(whole))
	}

	for _, size := range []int{1, 7, n} {
		var disp []disposition
		for lo := 0; lo < n; lo += size {
			win := maskWindow{lo, lo + size}
			if win.hi > n {
				win.hi = n
			}
			shard := planOf(cfg, Attach{}, []maskWindow{win})
			var wantVerify, sim []int
			for m, d := range shard.disp {
				if !win.holds(m) && d.kind != dispOutOfWindow {
					t.Fatalf("size %d: mask %d outside %v disposed %v", size, m, win, d)
				}
				if win.holds(m) && whole.disp[m].kind == dispSimulate {
					sim = append(sim, m)
				}
			}
			for _, m := range wholeVerify {
				if d := whole.disp[m]; win.holds(m) && (d.kind == dispDead || win.holds(d.rep)) {
					wantVerify = append(wantVerify, m)
				}
			}
			verify, wverify := shard.samples()
			if !reflect.DeepEqual(verify, wantVerify) {
				t.Fatalf("size %d window %v: prune-verify sample %v, want %v", size, win, verify, wantVerify)
			}
			if want := sampleEvenly(sim, cfg.WindowVerify); !reflect.DeepEqual(wverify, want) {
				t.Fatalf("size %d window %v: window-verify sample %v, want %v", size, win, wverify, want)
			}
			disp = append(disp, shard.disp[win.lo:win.hi]...)
		}
		if !reflect.DeepEqual(disp, whole.disp) {
			t.Fatalf("size %d: concatenated shard dispositions differ from the single-node plan:\n%v\nvs\n%v", size, disp, whole.disp)
		}
	}

	// A journal turns exactly the simulate dispositions it covers into
	// resumed ones; a journaled mask the plan prunes stays pruned.
	path := filepath.Join(t.TempDir(), "plan.journal.jsonl")
	j, err := fault.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	journaled := map[int]bool{}
	picked := map[dispKind]int{}
	for m, d := range whole.disp {
		if (d.kind == dispSimulate && picked[d.kind] < 2) || (d.kind == dispDead && picked[d.kind] < 1) {
			raw, _ := json.Marshal(LogRecord{MaskID: masks[m].ID, Sites: masks[m].Sites, Status: RunCompleted.String()})
			if err := j.Append(fault.JournalEntry{Campaign: whole.key, MaskID: masks[m].ID, Record: raw}); err != nil {
				t.Fatal(err)
			}
			journaled[m] = true
			picked[d.kind]++
		}
	}
	j.Close()
	if j, err = fault.OpenJournal(path); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	resumedPlan := planOf(cfg, Attach{Journal: j, Resume: true}, nil)
	for m, d := range resumedPlan.disp {
		want := whole.disp[m]
		if journaled[m] && want.kind == dispSimulate {
			want.kind = dispResumed
		}
		if d != want {
			t.Fatalf("mask %d (journaled %v): disposed %v, want %v", m, journaled[m], d, want)
		}
	}
	if len(resumedPlan.resumed) != 2 {
		t.Fatalf("%d resumed outcomes, want 2", len(resumedPlan.resumed))
	}

	if watched.Load() != 0 {
		t.Fatalf("planning ran %d injections", watched.Load())
	}
}
