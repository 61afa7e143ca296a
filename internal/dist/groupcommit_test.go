package dist_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/svc/api"
)

// TestMergeJournalsEachShardWithOneSync drives a coordinator shard by
// shard, as one worker would, over a plain and an adaptive matrix. Every
// merged shard that settles rows — the adaptive frontier's and the
// stopped tail's included — journals them with exactly one fsync; the
// lines are byte for byte those one Append per row writes; and they are
// the lines a single-node run of the config journals.
func TestMergeJournalsEachShardWithOneSync(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.CampaignConfig
	}{{"plain", testConfig()}, {"adaptive", adaptiveConfig()}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			dir := t.TempDir()
			journals := map[string]*fault.Journal{}
			opt := dist.CoordinatorOptions{ShardSize: 4, JournalFor: func(key string) (*fault.Journal, error) {
				j, err := fault.OpenJournal(filepath.Join(dir, key+".journal.jsonl"))
				journals[key] = j
				return j, err
			}}
			if cfg.StopMargin > 0 {
				opt.Cell = cellFor(cfg)
			}
			coord, err := dist.New(cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			keys := cfg.Keys()
			cache := core.NewGoldenCache()
			withRows := 0
			for {
				lease := coord.Lease("w")
				if lease.Status != api.StatusShard {
					if lease.Status != api.StatusDone {
						t.Fatalf("lease answered %+v with nothing leased", lease)
					}
					break
				}
				sh := lease.Shard
				res, err := core.RunShard(cfg, sh.Campaign, sh.MaskLo, sh.MaskHi, cli.Resolve, core.Attach{Golden: cache})
				if err != nil {
					t.Fatal(err)
				}
				j := journals[keys[sh.Campaign]]
				rows, syncs := j.Appended(), j.Syncs()
				if ack := coord.Complete(api.CompleteRequest{WorkerID: "w", ShardID: sh.ID, Result: res}); !ack.Accepted {
					t.Fatalf("shard %d not accepted: %+v", sh.ID, ack)
				}
				rows = j.Appended() - rows
				want := 0
				if rows > 0 {
					want = 1
					withRows++
				}
				if got := j.Syncs() - syncs; got != want {
					t.Fatalf("shard %d journaled %d rows with %d fsyncs, want %d", sh.ID, rows, got, want)
				}
			}
			if withRows == 0 {
				t.Fatal("no merged shard journaled a row")
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if _, err := coord.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			coord.Close()

			var lines [][]byte
			for _, key := range keys {
				path := filepath.Join(dir, key+".journal.jsonl")
				batched, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				entries, err := fault.ReadJournalFile(path)
				if err != nil {
					t.Fatal(err)
				}
				one, err := fault.OpenJournal(filepath.Join(t.TempDir(), "one.journal.jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if err := one.Append(e); err != nil {
						t.Fatal(err)
					}
				}
				one.Close()
				single, err := os.ReadFile(one.Path())
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(batched, single) {
					t.Fatalf("%s: the batch-written journal differs from its rows appended one by one", key)
				}
				lines = append(lines, bytes.SplitAfter(batched, []byte("\n"))...)
			}

			ref, err := fault.OpenJournal(filepath.Join(t.TempDir(), "ref.journal.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.RunConfig(cfg, cli.Resolve, core.Attach{Golden: core.NewGoldenCache(), Journal: ref}); err != nil {
				t.Fatal(err)
			}
			ref.Close()
			raw, err := os.ReadFile(ref.Path())
			if err != nil {
				t.Fatal(err)
			}
			want := bytes.SplitAfter(raw, []byte("\n"))
			sortLines := func(ls [][]byte) [][]byte {
				ls = slices.DeleteFunc(ls, func(l []byte) bool { return len(l) == 0 })
				slices.SortFunc(ls, bytes.Compare)
				return ls
			}
			if got, want := sortLines(lines), sortLines(want); !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("the coordinator journaled %d lines, the single-node run %d; they differ", len(got), len(want))
			}
		})
	}
}
