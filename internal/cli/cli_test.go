package cli_test

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
)

func parse(t *testing.T, args ...string) (*cli.CampaignFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := cli.Campaign(fs, 10)
	return f, fs.Parse(args)
}

// Apply stamps the lowest schema version that expresses the parsed
// flags: the margin and confidence defaults must not raise a config
// that arms neither the window nor the stopping rule.
func TestApplyStampsTheLowestSchemaVersion(t *testing.T) {
	cells := []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}}
	for _, tc := range []struct {
		args    []string
		version int
	}{
		{nil, 1},
		{[]string{"-prune", "-ladder", "6"}, 1},
		{[]string{"-detail-window"}, 2},
		{[]string{"-window-verify", "3"}, 2},
		{[]string{"-divergence"}, 3},
		{[]string{"-stop-margin", "0.05"}, 5},
		{[]string{"-detail-window", "-stop-margin", "0.05"}, 5},
	} {
		f, err := parse(t, tc.args...)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		cfg, err := f.Config(cells)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if cfg.SchemaVersion != tc.version {
			t.Errorf("%q: schema version %d, want %d", tc.args, cfg.SchemaVersion, tc.version)
		}
		if !cfg.DetailWindow && cfg.WindowVerify == 0 && (cfg.WindowPre != 0 || cfg.WindowPost != 0) {
			t.Errorf("%q: windowless config carries margins %d/%d", tc.args, cfg.WindowPre, cfg.WindowPost)
		}
	}
}

// The functional-tier knobs are gone: the predecode cache and the
// fast-forward rung ladder are unconditional, so their flags are
// unknown.
func TestRetiredFlagsAreUnknown(t *testing.T) {
	for _, arg := range []string{"-ff-rungs=-1", "-no-decode-cache"} {
		_, err := parse(t, "-detail-window", arg)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: parse error %v, want an unknown flag", arg, err)
		}
	}
}
