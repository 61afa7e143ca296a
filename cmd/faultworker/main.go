// Command faultworker is the remote injection worker of the campaign
// service: it leases mask-range shards from a faultcampd daemon, fetches
// the config of each campaign a lease names (once per campaign), executes
// every shard with the same scheduler machinery a single-node run uses
// (rebuilding masks, checkpoints and prune plans deterministically from
// the config), and streams results back while heartbeating its leases.
// One worker serves every campaign the daemon runs and outlives each of
// them; a daemon it cannot reach — restarting, or not up yet — is polled
// until it answers. It exits when a one-shot daemon answers "done", or
// on SIGTERM after delivering its in-flight shard.
//
// Example:
//
//	faultworker -coordinator http://127.0.0.1:8400 -id w1
//	faultworker -addr-file coord.addr     # wait for faultcampd's handshake file
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/dist"
	"repro/internal/telemetry"
)

func main() {
	coordURL := flag.String("coordinator", "", "faultcampd base URL (e.g. http://127.0.0.1:8400)")
	addrFile := flag.String("addr-file", "", "read the faultcampd address from this file (polls until faultcampd writes it)")
	id := flag.String("id", "", "worker id (default host:pid)")
	poll := flag.Duration("poll", 0, "cap on the wait between lease polls (0: honor the daemon's hint)")
	heartbeat := flag.Duration("heartbeat", 0, "lease heartbeat period (0: a third of the campaign's lease TTL)")
	metricsAddr := flag.String("metrics-addr", "", "serve this worker's /metrics, /snapshot.json, /events and /debug/pprof on this address")
	snapJSON := flag.String("snapshot-json", "", "write this worker's final telemetry snapshot as JSON to this file on exit")
	quiet := flag.Bool("quiet", false, "suppress per-shard progress lines")
	flag.Parse()

	if *coordURL == "" && *addrFile == "" {
		fatal(fmt.Errorf("need -coordinator or -addr-file"))
	}
	if *coordURL == "" {
		url, err := waitForAddr(*addrFile, 30*time.Second)
		if err != nil {
			fatal(err)
		}
		*coordURL = url
	}
	if *id == "" {
		host, _ := os.Hostname()
		*id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}

	tel := telemetry.New()
	drain := make(chan struct{})
	opt := dist.WorkerOptions{
		ID:        *id,
		Resolve:   cli.Resolve,
		Heartbeat: *heartbeat,
		Poll:      *poll,
		Telemetry: tel,
		Drain:     drain,
	}
	if !*quiet {
		opt.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *metricsAddr != "" {
		es := telemetry.NewEventStream(tel)
		tel.AddSink(es)
		srv, err := telemetry.ServeHandler(*metricsAddr, tel.HandlerWithEvents(es))
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "faultworker metrics listening on http://%s\n", srv.Addr())
	}

	// Graceful shutdown: SIGTERM/SIGINT drains the worker — it finishes
	// and delivers its in-flight shard, posts its final snapshot to the
	// daemon, and exits cleanly instead of abandoning the lease.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "faultworker: %v: draining (finishing in-flight shard)\n", sig)
		close(drain)
		// A second signal kills immediately.
		signal.Stop(sigCh)
	}()

	runErr := dist.RunWorker(context.Background(), strings.TrimSuffix(*coordURL, "/"), opt)
	if *snapJSON != "" {
		b, err := tel.Snapshot().JSON()
		if err == nil {
			err = os.WriteFile(*snapJSON, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultworker: writing snapshot:", err)
		}
	}
	if runErr != nil {
		fatal(runErr)
	}
}

// waitForAddr polls for faultcampd's handshake file.
func waitForAddr(path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		data, err := os.ReadFile(path)
		if err == nil {
			if addr := strings.TrimSpace(string(data)); addr != "" {
				return addr, nil
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("no faultcampd address in %s after %s", path, timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultworker:", err)
	os.Exit(1)
}
