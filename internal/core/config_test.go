package core_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sims"
	"repro/internal/workload"
)

// simsResolver is the production-shaped Resolver the CLIs use, rebuilt
// here because core cannot import sims.
func simsResolver(t *testing.T) core.Resolver {
	t.Helper()
	return func(tool, benchmark string) (core.Factory, error) {
		w, err := workload.ByName(benchmark)
		if err != nil {
			return nil, err
		}
		return sims.Factory(tool, w)
	}
}

// Validate must name the offending field in the JSON spelling.
func TestCampaignConfigValidate(t *testing.T) {
	good := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "t", Benchmark: "b", Structure: "s"}},
		Injections: 4,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name  string
		field string
		mut   func(*core.CampaignConfig)
	}{
		{"future version", "schema_version", func(c *core.CampaignConfig) { c.SchemaVersion = core.ConfigSchemaVersion + 1 }},
		{"no campaigns", "campaigns", func(c *core.CampaignConfig) { c.Campaigns = nil }},
		{"negative injections", "injections", func(c *core.CampaignConfig) { c.Injections = -1 }},
		{"unknown model", "model", func(c *core.CampaignConfig) { c.Model = "cosmic" }},
		{"negative workers", "workers", func(c *core.CampaignConfig) { c.Workers = -2 }},
		{"negative prune verify", "prune_verify", func(c *core.CampaignConfig) { c.PruneVerify = -1 }},
		{"negative ladder", "checkpoint_ladder", func(c *core.CampaignConfig) { c.CheckpointLadder = -3 }},
		{"negative wall limit", "run_wall_limit_ns", func(c *core.CampaignConfig) { c.RunWallLimit = -1 }},
		{"empty tool", "campaigns[0].tool", func(c *core.CampaignConfig) { c.Campaigns[0].Tool = "" }},
		{"empty benchmark", "campaigns[0].benchmark", func(c *core.CampaignConfig) { c.Campaigns[0].Benchmark = "" }},
		{"empty structure", "campaigns[0].structure", func(c *core.CampaignConfig) { c.Campaigns[0].Structure = "" }},
		{"negative cell injections", "campaigns[0].injections", func(c *core.CampaignConfig) { c.Campaigns[0].Injections = -1 }},
		{"no masks anywhere", "campaigns[0].injections", func(c *core.CampaignConfig) { c.Injections = 0 }},
		{"bad mask model", "campaigns[0].masks[0].sites[0].model", func(c *core.CampaignConfig) {
			c.Campaigns[0].Masks = []fault.Mask{{Sites: []fault.Site{{Structure: "s", Model: "warp"}}}}
		}},
		{"stop margin above domain", "stop_margin", func(c *core.CampaignConfig) { c.StopMargin = 1.5 }},
		{"negative stop margin", "stop_margin", func(c *core.CampaignConfig) { c.StopMargin = -0.1 }},
		{"margin without confidence", "stop_confidence", func(c *core.CampaignConfig) { c.StopMargin = 0.05 }},
		{"confidence out of domain", "stop_confidence", func(c *core.CampaignConfig) {
			c.StopMargin, c.StopConfidence = 0.05, 1.0
		}},
		{"confidence without margin", "stop_confidence", func(c *core.CampaignConfig) { c.StopConfidence = 0.99 }},
		{"cadence without margin", "stop_check_every", func(c *core.CampaignConfig) { c.StopCheckEvery = 25 }},
		{"negative cadence", "stop_check_every", func(c *core.CampaignConfig) {
			c.StopMargin, c.StopConfidence, c.StopCheckEvery = 0.05, 0.99, -1
		}},
		{"exhaustive with stop margin", "exhaustive", func(c *core.CampaignConfig) {
			c.Exhaustive = true
			c.StopMargin, c.StopConfidence = 0.05, 0.99
		}},
		{"exhaustive with importance sampling", "exhaustive", func(c *core.CampaignConfig) {
			c.Exhaustive, c.ImportanceSampling = true, true
		}},
		{"exhaustive with live-only", "exhaustive", func(c *core.CampaignConfig) {
			c.Exhaustive, c.LiveOnly = true, true
		}},
		{"exhaustive with permanent model", "exhaustive", func(c *core.CampaignConfig) {
			c.Exhaustive, c.Model = true, "permanent"
		}},
		{"importance sampling with live-only", "importance_sampling", func(c *core.CampaignConfig) {
			c.ImportanceSampling, c.LiveOnly = true, true
		}},
		{"importance sampling with intermittent model", "importance_sampling", func(c *core.CampaignConfig) {
			c.ImportanceSampling, c.Model = true, "intermittent"
		}},
		{"explicit masks with exhaustive", "campaigns[0].masks", func(c *core.CampaignConfig) {
			c.Exhaustive = true
			c.Campaigns[0].Masks = []fault.Mask{{Sites: []fault.Site{{Structure: "s", Model: "transient"}}}}
		}},
		{"explicit masks with importance sampling", "campaigns[0].masks", func(c *core.CampaignConfig) {
			c.ImportanceSampling = true
			c.Campaigns[0].Masks = []fault.Mask{{Sites: []fault.Site{{Structure: "s", Model: "transient"}}}}
		}},
	}
	for _, tc := range cases {
		cfg := good
		cfg.Campaigns = []core.CampaignCell{good.Campaigns[0]}
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), "campaign config: "+tc.field+":") {
			t.Fatalf("%s: error %q does not name field %q", tc.name, err, tc.field)
		}
	}
}

func TestCampaignConfigMaskCountAndKeys(t *testing.T) {
	cfg := core.CampaignConfig{
		Injections: 10,
		Campaigns: []core.CampaignCell{
			{Tool: "t", Benchmark: "b", Structure: "s1"},
			{Tool: "t", Benchmark: "b", Structure: "s2", Injections: 3},
			{Tool: "t", Benchmark: "b", Structure: "s3", Masks: make([]fault.Mask, 7)},
		},
	}
	for i, want := range []int{10, 3, 7} {
		if got := cfg.MaskCount(i); got != want {
			t.Fatalf("MaskCount(%d) = %d, want %d", i, got, want)
		}
	}
	keys := cfg.Keys()
	if len(keys) != 3 || keys[1] != fault.CampaignKey("t", "b", "s2") {
		t.Fatalf("Keys() = %v", keys)
	}
}

// The union of shards must equal the single-node run: simulated and
// pruned-dead rows verbatim, replicated rows as stubs whose
// representative carries the verdict.
func TestRunShardUnionMatchesRunConfig(t *testing.T) {
	resolve := simsResolver(t)
	cfg := core.CampaignConfig{
		Campaigns: []core.CampaignCell{
			{Tool: sims.GeFINX86, Benchmark: "qsort", Structure: "rf.int"},
		},
		Injections: 8, Seed: 7,
		Prune: true, CheckpointLadder: 2,
	}
	full, err := core.RunConfig(cfg, resolve, core.Attach{})
	if err != nil {
		t.Fatal(err)
	}
	records := full[0].Records

	shared := core.NewGoldenCache()
	seen := make(map[int]bool)
	for _, win := range [][2]int{{0, 3}, {3, 6}, {6, 8}} {
		shard, err := core.RunShard(cfg, 0, win[0], win[1], resolve, core.Attach{Golden: shared})
		if err != nil {
			t.Fatalf("shard [%d,%d): %v", win[0], win[1], err)
		}
		if !reflect.DeepEqual(shard.Golden, full[0].Golden) {
			t.Fatalf("shard [%d,%d) golden header differs", win[0], win[1])
		}
		if len(shard.Runs) != win[1]-win[0] {
			t.Fatalf("shard [%d,%d) returned %d runs", win[0], win[1], len(shard.Runs))
		}
		for _, run := range shard.Runs {
			if run.Index < win[0] || run.Index >= win[1] || seen[run.Index] {
				t.Fatalf("run index %d out of window or duplicated", run.Index)
			}
			seen[run.Index] = true
			want := records[run.Index]
			switch run.Pruned {
			case "replicated":
				// The stub names its representative; the representative's
				// single-node verdict is what the merge will copy.
				repClass, _ := (core.Parser{}).Classify(records[run.RepIndex])
				wantClass, _ := (core.Parser{}).Classify(want)
				if repClass != wantClass {
					t.Fatalf("mask %d: rep %d classifies %v, single-node says %v",
						run.Index, run.RepIndex, repClass, wantClass)
				}
				if run.Record.MaskID != want.MaskID {
					t.Fatalf("mask %d: stub mask id %d", run.Index, run.Record.MaskID)
				}
			default: // simulated or dead: verdict settled in-shard
				if !reflect.DeepEqual(run.Record, want) {
					t.Fatalf("mask %d (%q) differs: shard %+v single-node %+v", run.Index, run.Pruned, run.Record, want)
				}
			}
		}
	}
	if len(seen) != 8 {
		t.Fatalf("shards covered %d of 8 masks", len(seen))
	}
	// The shared cache profiled and laddered once — shards reuse, not
	// re-simulate, plan-time work.
	if runs := shared.Runs(); runs == 0 {
		t.Fatal("shared cache recorded no golden runs")
	}
}

// A config written with a retired knob still decodes and validates, and
// the knob, whatever its value, is a no-op. use_checkpoint was a switch
// before every campaign restored from its row's ladder; ff_rungs and
// no_decode_cache tuned the functional tier before the fast-forward
// ladder and the predecode cache became unconditional. Each decodes the
// way faultcampd -config and /v1 submissions do (unknown keys ignored)
// and records exactly what the bare config does, windowed or not.
func TestRetiredKeysDecodeAsNoOps(t *testing.T) {
	resolve := simsResolver(t)
	cache := core.NewGoldenCache()
	for _, window := range []string{``, `"detail_window": true, `} {
		var want []core.LogRecord
		for i, knob := range []string{``, `"use_checkpoint": true, `, `"use_checkpoint": false, `, `"ff_rungs": -1, `, `"no_decode_cache": true, `} {
			doc := `{` + window + knob + `"campaigns": [{"tool": "gefin-x86", "benchmark": "qsort", "structure": "rf.int"}], "injections": 6, "seed": 4}`
			var cfg core.CampaignConfig
			if err := json.Unmarshal([]byte(doc), &cfg); err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
			res, err := core.RunConfig(cfg, resolve, core.Attach{Golden: cache})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = res[0].Records
			} else if !reflect.DeepEqual(res[0].Records, want) {
				t.Errorf("%s: records differ from the bare config", doc)
			}
		}
	}
}

func TestRunShardValidation(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "t", Benchmark: "b", Structure: "s"}},
		Injections: 4,
	}
	resolve := func(tool, benchmark string) (core.Factory, error) { return nil, nil }
	if _, err := core.RunShard(cfg, 1, 0, 2, resolve, core.Attach{}); err == nil {
		t.Fatal("campaign index out of range accepted")
	}
	for _, win := range [][2]int{{-1, 2}, {0, 5}, {2, 2}, {3, 1}} {
		if _, err := core.RunShard(cfg, 0, win[0], win[1], resolve, core.Attach{}); err == nil {
			t.Fatalf("window [%d,%d) accepted", win[0], win[1])
		}
	}
	if _, err := core.RunShard(cfg, 0, 0, 2, nil, core.Attach{}); err == nil {
		t.Fatal("nil resolver accepted")
	}
	if _, err := core.RunConfig(cfg, nil, core.Attach{}); err == nil {
		t.Fatal("RunConfig with nil resolver accepted")
	}
}
