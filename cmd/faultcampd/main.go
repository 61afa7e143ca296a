// Command faultcampd is the campaign service daemon: a durable,
// multi-tenant queue of fault-injection campaigns multiplexed over one
// elastic faultworker fleet. Campaigns are submitted over the
// versioned /v1 HTTP API (see internal/svc/api), spooled to disk so
// queued and running campaigns survive a daemon restart (running ones
// resume from their journals), and merged into a logs repository
// byte-identical to a single-node faultcamp run of the same config.
//
// Two modes:
//
//	faultcampd -service -logs logsrepo -listen 127.0.0.1:8400 \
//	           -tenants tenants.json &
//	faultworker -coordinator http://127.0.0.1:8400 -id w1 &
//	faultctl -addr http://127.0.0.1:8400 -token tok submit -config c.json
//
// runs the always-on service; without -service the daemon keeps its
// historical one-shot contract — plan one campaign, serve workers,
// merge, print the summary, exit — but implemented as a submission
// through the same public API the service exposes, so there is exactly
// one code path.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/svc"
	"repro/internal/svc/api"
	"repro/internal/svc/client"
	"repro/internal/telemetry"
)

func main() {
	tool := flag.String("tool", "gefin-x86", "tool configuration (one-shot single-cell mode)")
	bench := flag.String("bench", "qsort", "benchmark name (one-shot single-cell mode)")
	structure := flag.String("structure", "rf.int", "target structure (one-shot single-cell mode)")
	configPath := flag.String("config", "", "campaign config JSON file (overrides -tool/-bench/-structure and the campaign flags)")
	logsDir := flag.String("logs", "logsrepo", "logs repository directory for the merged results")
	journalOn := flag.Bool("journal", false, "journal every merged simulated run to <key>.journal.jsonl (fsync'd; required for restart-resume)")
	listen := flag.String("listen", "127.0.0.1:0", "service listen address")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (worker handshake)")
	shardSize := flag.Int("shard-size", 50, "masks per shard")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "shard lease TTL; a worker silent this long loses its shard")
	maxRetries := flag.Int("max-retries", 3, "requeue budget per shard before the campaign fails")
	retryBackoff := flag.Duration("retry-backoff", time.Second, "delay before a requeued shard is reassigned (scaled by retry count)")
	fleetJSON := flag.String("fleet-json", "", "write the final fleet-aggregated snapshot (the /v1/snapshot.json view) to this file")
	verbose := flag.Bool("verbose", false, "log scheduling, lease grants, requeues and completions to stderr")

	service := flag.Bool("service", false, "run as the always-on multi-campaign service instead of one-shot mode")
	spoolDir := flag.String("spool", "", "campaign spool directory (default <logs>/.spool); the durable queue state")
	indexDir := flag.String("index", "", "result index directory (default <logs>/.index); finished campaigns' outcome tables")
	tenantsPath := flag.String("tenants", "", "tenant JSON file: [{\"name\",\"token\",\"max_active\"}, ...] (default: open access)")
	maxActive := flag.Int("max-active", 4, "campaigns running concurrently across all tenants (-service)")
	maxQueued := flag.Int("max-queued-per-tenant", 0, "live campaigns one tenant may hold, 0 = unlimited (-service)")

	cf := cli.Campaign(flag.CommandLine, 200)
	tf := cli.Telemetry(flag.CommandLine, 2*time.Second)
	flag.Parse()

	logs, err := core.NewLogsRepo(*logsDir)
	if err != nil {
		fatal(err)
	}
	if *spoolDir == "" {
		*spoolDir = filepath.Join(*logsDir, ".spool")
	}
	if *indexDir == "" {
		*indexDir = filepath.Join(*logsDir, ".index")
	}
	spool, err := svc.OpenSpool(*spoolDir)
	if err != nil {
		fatal(err)
	}
	index, err := fault.NewResultIndex(*indexDir)
	if err != nil {
		fatal(err)
	}
	tenants, err := loadTenants(*tenantsPath)
	if err != nil {
		fatal(err)
	}

	opt := svc.Options{
		Logs:               logs,
		Spool:              spool,
		Index:              index,
		Resolve:            cli.Resolve,
		Tenants:            tenants,
		MaxActive:          *maxActive,
		MaxQueuedPerTenant: *maxQueued,
		ShardSize:          *shardSize,
		LeaseTTL:           *leaseTTL,
		MaxRetries:         *maxRetries,
		RetryBackoff:       *retryBackoff,
		ExitWhenIdle:       !*service,
	}
	if *verbose {
		opt.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	s, err := svc.New(opt)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	if *addrFile != "" {
		// Write-then-rename so a polling worker never reads a torn file.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte("http://"+ln.Addr().String()+"\n"), 0o644); err != nil {
			fatal(err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			fatal(err)
		}
	}
	if tf.MetricsAddr != "" {
		msrv, err := telemetry.ServeHandler(tf.MetricsAddr, s.Handler())
		if err != nil {
			fatal(err)
		}
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "faultcampd metrics listening on http://%s\n", msrv.Addr())
	}

	if *service {
		runService(s, ln, spool.Dir())
		return
	}
	runOneShot(s, ln, oneShotArgs{
		tool: *tool, bench: *bench, structure: *structure,
		configPath: *configPath, journal: *journalOn,
		fleetJSON: *fleetJSON, leaseTTL: *leaseTTL,
		logs: logs, cf: cf, tf: tf,
	})
}

// runService serves the campaign queue until SIGTERM/SIGINT. Running
// campaigns are deliberately NOT cancelled on shutdown: their spool
// entries stay live, so the next daemon on the same spool re-queues
// and resumes them from their journals.
func runService(s *svc.Service, ln net.Listener, spoolDir string) {
	fmt.Fprintf(os.Stderr, "faultcampd service listening on http://%s (spool %s)\n", ln.Addr(), spoolDir)
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	sig := <-sigCh
	fmt.Fprintf(os.Stderr, "faultcampd: %v: shutting down (queued and running campaigns stay spooled)\n", sig)
	s.Close()
}

type oneShotArgs struct {
	tool, bench, structure string
	configPath             string
	journal                bool
	fleetJSON              string
	leaseTTL               time.Duration
	logs                   *core.LogsRepo
	cf                     *cli.CampaignFlags
	tf                     *cli.TelemetryFlags
}

// runOneShot is the historical faultcampd contract — one campaign,
// exit when merged — reimplemented as a submit-then-wait through the
// service's own public /v1 API, so the one-shot and service paths
// cannot drift.
func runOneShot(s *svc.Service, ln net.Listener, a oneShotArgs) {
	var cfg core.CampaignConfig
	if a.configPath != "" {
		data, err := os.ReadFile(a.configPath)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(data, &cfg); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", a.configPath, err))
		}
		if err := cfg.Validate(); err != nil {
			fatal(err)
		}
	} else {
		var err error
		cfg, err = a.cf.Config([]core.CampaignCell{{Tool: a.tool, Benchmark: a.bench, Structure: a.structure}})
		if err != nil {
			fatal(err)
		}
	}
	keys := cfg.Keys()

	ctx := context.Background()
	cl := client.New("http://" + ln.Addr().String())
	start := time.Now()
	st, err := cl.Submit(ctx, api.SubmitRequest{
		Name: "one-shot",
		Options: api.SubmitOptions{
			Trace:   a.tf.Trace,
			Spans:   a.tf.Spans,
			Journal: a.journal,
			Flat:    true,
		},
		Config: cfg,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "faultcampd listening on http://%s (%d campaigns, %d shards; /v1/snapshot.json /v1/metrics /v1/fleet.json /v1/events)\n",
		ln.Addr(), len(cfg.Campaigns), st.Shards)

	var rep *telemetry.Reporter
	if !a.tf.Quiet {
		rep = telemetry.StartReporterFunc(os.Stderr, a.tf.ProgressEvery, func() string {
			snap, err := cl.Snapshot(ctx, st.ID)
			if err != nil {
				return ""
			}
			return snap.ProgressLine()
		})
	}
	final, err := cl.Wait(ctx, st.ID, 200*time.Millisecond)
	if rep != nil {
		rep.Stop()
	}
	if err != nil {
		fatal(err)
	}
	if final.State != api.StateDone {
		fatal(fmt.Errorf("campaign %s: %s", final.State, final.Error))
	}
	// The last shard's merge finishes the campaign moments before its
	// worker hears "done" on the next lease poll; drain the fleet before
	// tearing the listener down so no worker is stranded mid-retry.
	settled := s.WaitFleetFinal(a.leaseTTL)
	if a.fleetJSON != "" {
		if !settled {
			fmt.Fprintln(os.Stderr, "faultcampd: fleet snapshot frozen before every worker posted its final state")
		}
		b, err := s.FleetSnapshot().JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(a.fleetJSON, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	snap, err := cl.Snapshot(ctx, st.ID)
	if err != nil {
		fatal(err)
	}
	if a.tf.SnapshotJSON != "" {
		b, err := snap.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(a.tf.SnapshotJSON, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	akey := "matrix"
	if len(keys) == 1 {
		akey = keys[0]
	}
	total := final.Masks
	fmt.Printf("distributed campaign: %d injections across %d campaigns in %.1fs\n",
		total, len(cfg.Campaigns), time.Since(start).Seconds())
	fmt.Printf("  shards: %d completed (%d requeued, %d duplicate completions discarded)\n",
		final.ShardsCompleted, final.Requeues, final.Duplicates)
	fmt.Printf("  logs stored in %s\n", a.logs.Dir())
	if a.tf.Trace {
		fmt.Printf("  trace: %s (%d records)\n", a.logs.TracePath(akey), total)
	}
	if cfg.Divergence {
		fmt.Printf("  divergence: %s (%d records, %d diverged)\n",
			a.logs.DivergencePath(akey), total, snap.DivergedRuns)
	}
	if a.tf.Spans {
		fmt.Printf("  spans: %s\n", a.logs.SpansPath(akey))
	}
	if a.fleetJSON != "" {
		fmt.Printf("  fleet snapshot: %s (%d workers)\n", a.fleetJSON, len(s.Fleet("")))
	}
	if a.journal {
		for _, key := range keys {
			fmt.Printf("  journal: %s\n", a.logs.JournalPath(key))
		}
	}
	fmt.Printf("summary: %s\n", snap.SummaryLine())
	s.Close()
}

// loadTenants parses the tenant credential file: a JSON array of
// {"name", "token", "max_active"} objects. An empty path means open
// access (every request acts as the anonymous tenant).
func loadTenants(path string) ([]svc.Tenant, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw []struct {
		Name      string `json:"name"`
		Token     string `json:"token"`
		MaxActive int    `json:"max_active"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(raw) == 0 {
		return nil, errors.New("tenants file is empty; omit -tenants for open access")
	}
	ts := make([]svc.Tenant, len(raw))
	for i, t := range raw {
		ts[i] = svc.Tenant{Name: t.Name, Token: t.Token, MaxActive: t.MaxActive}
	}
	return ts, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultcampd:", err)
	os.Exit(1)
}
