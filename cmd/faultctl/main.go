// Command faultctl is the operator CLI of the faultcampd campaign
// service: submit, watch, cancel and query campaigns over the /v1 HTTP
// API with a tenant bearer token.
//
// Examples:
//
//	faultctl -addr http://127.0.0.1:8400 -token tok-alice \
//	         submit -config campaign.json -journal -trace
//	faultctl -addr http://127.0.0.1:8400 -token tok-alice list
//	faultctl -addr http://127.0.0.1:8400 -token tok-alice wait c00000
//	faultctl -addr http://127.0.0.1:8400 -token tok-alice results c00000
//
// submit prints the new campaign's ID (and nothing else) on stdout;
// status prints "id state done/shards masks queue-wait=D", D being the
// time from submission to the campaign's first shard lease ("-" before
// it); wait blocks until the campaign is terminal and prints the final
// state.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/svc/api"
	"repro/internal/svc/client"
)

func main() {
	g := flag.NewFlagSet("faultctl", flag.ExitOnError)
	addr := g.String("addr", "", "service base URL (e.g. http://127.0.0.1:8400)")
	addrFile := g.String("addr-file", "", "read the service address from this file (polls until faultcampd writes it)")
	token := g.String("token", "", "tenant API token (sent as a Bearer credential)")
	g.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: faultctl [-addr URL | -addr-file FILE] [-token TOK] <command> [args]")
		fmt.Fprintln(os.Stderr, "commands: submit, list, status, cancel, results, snapshot, wait")
		g.PrintDefaults()
	}
	g.Parse(os.Args[1:])
	args := g.Args()
	if len(args) == 0 {
		g.Usage()
		os.Exit(2)
	}
	base, err := resolveAddr(*addr, *addrFile)
	if err != nil {
		fatal(err)
	}
	cl := client.New(base, client.WithToken(*token))
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "submit":
		cmdSubmit(ctx, cl, rest)
	case "list":
		cmdList(ctx, cl)
	case "status":
		st, err := cl.Get(ctx, oneID(cmd, rest))
		if err != nil {
			fatal(err)
		}
		printStatus(st)
	case "cancel":
		st, err := cl.Cancel(ctx, oneID(cmd, rest))
		if err != nil {
			fatal(err)
		}
		printStatus(st)
	case "results":
		res, err := cl.Results(ctx, oneID(cmd, rest))
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
	case "snapshot":
		snap, err := cl.Snapshot(ctx, oneID(cmd, rest))
		if err != nil {
			fatal(err)
		}
		b, err := snap.JSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(append(b, '\n'))
	case "wait":
		fs := flag.NewFlagSet("faultctl wait", flag.ExitOnError)
		poll := fs.Duration("poll", 500*time.Millisecond, "longest poll period (polls start a few milliseconds apart and back off to it)")
		fs.Parse(rest)
		if fs.NArg() != 1 {
			fatal(fmt.Errorf("usage: faultctl wait [-poll D] <campaign-id>"))
		}
		final, err := cl.Wait(ctx, fs.Arg(0), *poll)
		if err != nil {
			fatal(err)
		}
		fmt.Println(final.State)
	default:
		fatal(fmt.Errorf("unknown command %q (want submit, list, status, cancel, results, snapshot or wait)", cmd))
	}
}

func cmdSubmit(ctx context.Context, cl *client.Client, args []string) {
	fs := flag.NewFlagSet("faultctl submit", flag.ExitOnError)
	configPath := fs.String("config", "", "campaign config JSON file (required)")
	name := fs.String("name", "", "human label for the campaign")
	priority := fs.Int("priority", 0, "queue priority (higher runs first)")
	trace := fs.Bool("trace", false, "record the JSONL injection trace")
	spans := fs.Bool("spans", false, "record the JSONL span trace")
	journal := fs.Bool("journal", false, "journal merged runs (required for restart-resume)")
	artifactKey := fs.String("artifact-key", "", "override the trace/spans/divergence file stem")
	wait := fs.Bool("wait", false, "block until the campaign is terminal; exit nonzero unless it is done")
	fs.Parse(args)
	if *configPath == "" {
		fatal(fmt.Errorf("submit: -config is required"))
	}
	data, err := os.ReadFile(*configPath)
	if err != nil {
		fatal(err)
	}
	var cfg core.CampaignConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *configPath, err))
	}
	st, err := cl.Submit(ctx, api.SubmitRequest{
		Name:     *name,
		Priority: *priority,
		Options: api.SubmitOptions{
			Trace:       *trace,
			Spans:       *spans,
			Journal:     *journal,
			ArtifactKey: *artifactKey,
		},
		Config: cfg,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(st.ID)
	if *wait {
		final, err := cl.Wait(ctx, st.ID, 500*time.Millisecond)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "faultctl:", st.ID, final.State)
		if final.State != api.StateDone {
			os.Exit(1)
		}
	}
}

func cmdList(ctx context.Context, cl *client.Client) {
	list, err := cl.List(ctx)
	if err != nil {
		fatal(err)
	}
	for _, st := range list.Campaigns {
		fmt.Printf("%s\t%s\t%s\t%d/%d\t%s\n", st.ID, st.Tenant, st.State, st.ShardsCompleted, st.Shards, st.Name)
	}
}

func printStatus(st api.CampaignStatus) {
	wait := "-"
	if st.FirstLeaseUnixNS > 0 && st.SubmittedUnixNS > 0 {
		wait = time.Duration(st.FirstLeaseUnixNS - st.SubmittedUnixNS).String()
	}
	fmt.Printf("%s %s %d/%d %d queue-wait=%s\n", st.ID, st.State, st.ShardsCompleted, st.Shards, st.Masks, wait)
}

func oneID(cmd string, args []string) string {
	if len(args) != 1 {
		fatal(fmt.Errorf("usage: faultctl %s <campaign-id>", cmd))
	}
	return args[0]
}

// resolveAddr picks the service base URL from -addr or polls the
// -addr-file handshake file faultcampd writes once listening.
func resolveAddr(addr, addrFile string) (string, error) {
	if addr != "" {
		return strings.TrimSuffix(addr, "/"), nil
	}
	if addrFile == "" {
		return "", fmt.Errorf("need -addr or -addr-file")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		data, err := os.ReadFile(addrFile)
		if err == nil {
			if a := strings.TrimSpace(string(data)); a != "" {
				return a, nil
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("no service address in %s after 30s", addrFile)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultctl:", err)
	os.Exit(1)
}
