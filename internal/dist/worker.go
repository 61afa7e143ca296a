package dist

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/svc/api"
	"repro/internal/svc/client"
	"repro/internal/telemetry"
)

// WorkerOptions parameterize one faultworker process.
type WorkerOptions struct {
	// ID names the worker in leases and logs; required.
	ID string
	// Resolve materializes simulator factories for the config's cells;
	// required (cli.Resolve in production, fakes in tests).
	Resolve core.Resolver
	// Golden is the worker's golden-artifact cache: reference runs,
	// ladders, liveness profiles and fast-forward rungs, shared by every
	// shard of every campaign the worker serves for as long as it lives.
	// nil makes the worker build its own (reporting cold builds on Logf);
	// pass one to read its counters from outside.
	Golden *core.GoldenCache
	// Heartbeat overrides the lease-extension period; 0 derives TTL/3
	// from the campaign's lease terms.
	Heartbeat time.Duration
	// Poll caps the wait between lease polls when the service has no
	// runnable shard; 0 honors the service's wait hint as-is. A lease
	// request asks the service to hold it open for the same time (Poll,
	// or maxLeaseHold when 0), so a shard that becomes runnable meanwhile
	// is granted at once rather than at the next poll.
	Poll time.Duration
	// Logf, when non-nil, receives worker lifecycle lines.
	Logf func(format string, args ...any)
	// Client is the service client; nil builds one for the service URL
	// with default retry terms.
	Client *client.Client
	// Telemetry, when non-nil, aggregates the worker's own view of the
	// campaign: every accepted shard result folds into it, a snapshot
	// piggybacks on each completion, and a final snapshot is pushed to
	// the service's /v1/snapshot when the worker exits or drains.
	Telemetry *telemetry.Collector
	// Drain, when non-nil, requests graceful shutdown when closed: the
	// worker finishes its in-flight shard (results are never thrown
	// away), delivers it, posts its final snapshot, and returns nil
	// instead of leasing more work.
	Drain <-chan struct{}
}

// maxLeaseHold is the longest a worker asks the service to hold a lease
// request: the longest wait hint a shard ledger gives.
const maxLeaseHold = time.Second

// maxWorkerCampaigns bounds the campaign configs a worker keeps: a
// config is dropped when its campaign ends, and past the bound (a fleet
// serving many long campaigns at once) the least recently leased one
// goes and is fetched again if the campaign comes back.
const maxWorkerCampaigns = 8

// workerCampaign is a worker's cached view of one campaign: its
// validated config and telemetry rows. Golden artifacts live in the
// worker's one cache, not here: they are keyed by what determines them,
// not by campaign.
type workerCampaign struct {
	id    string
	cfg   core.CampaignConfig
	keys  []string
	sinks map[int]*core.CellSinks
	ttl   time.Duration
	used  uint64 // lease sequence number of the last use
}

// ErrNoCampaign ends a worker that was granted a shard without a
// campaign ID: configs are fetched by campaign, so there is nothing to
// run the shard with, and the server is not a campaign service.
var ErrNoCampaign = errors.New("dist: shard lease names no campaign")

// RunWorker leases shards from the campaign service at svcURL and runs
// them until the service answers a lease with "done" (nil), the worker
// is drained (nil), or ctx ends. Leases carry campaign IDs; a campaign's
// config is fetched on its first lease and kept until the campaign ends.
// One campaign's failure or completion never stops the worker, and a
// service that is briefly unreachable (a daemon restart) is ridden out
// by polling.
//
// Each shard rebuilds its campaign cell deterministically from the
// config via core.RunShard. What the worker carries from shard to shard
// is a cache and nothing a result depends on: the campaign configs, and
// one golden cache whose memoized fault-free runs and plan-time
// artifacts are identical to what a rebuild would produce.
func RunWorker(ctx context.Context, svcURL string, opt WorkerOptions) error {
	if opt.ID == "" {
		return fmt.Errorf("dist: worker needs an ID")
	}
	if opt.Resolve == nil {
		return fmt.Errorf("dist: worker needs a Resolver")
	}
	cl := opt.Client
	if cl == nil {
		cl = client.New(svcURL)
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	if opt.Golden == nil {
		opt.Golden = core.NewGoldenCache()
		opt.Golden.Logf = opt.Logf
	}
	if opt.Telemetry != nil {
		opt.Telemetry.SetCacheSource(opt.Golden.Observe)
	}

	camps := make(map[string]*workerCampaign)
	var leases uint64
	started := false

	// loadCampaign returns the config behind a lease, fetching and
	// validating it on first contact.
	loadCampaign := func(id string) (*workerCampaign, error) {
		leases++
		if wc, ok := camps[id]; ok {
			wc.used = leases
			return wc, nil
		}
		resp, err := cl.CampaignConfig(ctx, id)
		if err != nil {
			return nil, err
		}
		if resp.ProtocolVersion > api.ProtocolVersion {
			return nil, fmt.Errorf("dist: service speaks protocol %d; this worker speaks <= %d", resp.ProtocolVersion, api.ProtocolVersion)
		}
		if err := resp.Config.Validate(); err != nil {
			return nil, fmt.Errorf("dist: campaign %s config: %w", id, err)
		}
		wc := &workerCampaign{
			id: id, cfg: resp.Config, keys: resp.Config.Keys(),
			sinks: make(map[int]*core.CellSinks),
			ttl:   time.Duration(resp.LeaseTTLMS) * time.Millisecond,
			used:  leases,
		}
		camps[id] = wc
		if len(camps) > maxWorkerCampaigns {
			oldest := wc
			for _, c := range camps {
				if c.used < oldest.used {
					oldest = c
				}
			}
			delete(camps, oldest.id)
		}
		if opt.Telemetry != nil && !started {
			// The worker's own collector mirrors a single-node run of its
			// share of the campaign; Workers is the per-shard simulation
			// pool so the fleet merge sums pool sizes across the fleet.
			opt.Telemetry.Start(wc.cfg.Workers)
			started = true
		}
		return wc, nil
	}

	// postFinal pushes the worker's last snapshot so the service's fleet
	// view stays complete after this process exits.
	postFinal := func() {
		if opt.Telemetry == nil {
			return
		}
		_, err := cl.PushSnapshot(ctx, api.SnapshotRequest{WorkerID: opt.ID, Snapshot: opt.Telemetry.Snapshot(), Final: true})
		if err != nil {
			logf("worker %s: posting final snapshot: %v", opt.ID, err)
		}
	}
	draining := func() bool {
		if opt.Drain == nil {
			return false
		}
		select {
		case <-opt.Drain:
			return true
		default:
			return false
		}
	}
	sleep := func(wait time.Duration) error {
		if opt.Poll > 0 && wait > opt.Poll {
			wait = opt.Poll
		}
		if wait <= 0 {
			wait = 100 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-opt.Drain: // nil when no drain channel; never fires then
			// Loop back: the top-of-loop drain check posts the final
			// snapshot and exits.
			return nil
		case <-time.After(wait):
			return nil
		}
	}

	hold := opt.Poll
	if hold <= 0 {
		hold = maxLeaseHold
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if draining() {
			logf("worker %s: draining; posting final snapshot and exiting", opt.ID)
			postFinal()
			return nil
		}
		lease, err := cl.LeaseHeld(ctx, opt.ID, hold)
		if err != nil {
			if !client.Retryable(err) {
				return err
			}
			// The service is briefly unreachable (restarting); a worker
			// outlives it rather than dying with it.
			logf("worker %s: lease failed (%v); retrying", opt.ID, err)
			if err := sleep(time.Second); err != nil {
				return err
			}
			continue
		}
		switch lease.Status {
		case api.StatusDone:
			logf("worker %s: service has no further work", opt.ID)
			postFinal()
			return nil
		case api.StatusFailed:
			return fmt.Errorf("dist: campaign failed: %s", lease.Error)
		case api.StatusWait:
			if lease.Held {
				continue // the service already waited; ask again at once
			}
			if err := sleep(time.Duration(lease.WaitMS) * time.Millisecond); err != nil {
				return err
			}
		case api.StatusShard:
			if lease.CampaignID == "" {
				return ErrNoCampaign
			}
			sh := *lease.Shard
			wc, err := loadCampaign(lease.CampaignID)
			if err != nil {
				// This campaign may have finished between the lease and the
				// config fetch; drop the lease and keep serving the others.
				logf("worker %s: campaign %s config: %v", opt.ID, lease.CampaignID, err)
				if err := sleep(time.Second); err != nil {
					return err
				}
				continue
			}
			logf("worker %s: shard %d of %s (campaign %d masks [%d,%d))", opt.ID, sh.ID, wc.id, sh.Campaign, sh.MaskLo, sh.MaskHi)
			result, spans, runErr := runLeased(ctx, opt, cl, wc, sh)
			req := api.CompleteRequest{WorkerID: opt.ID, ShardID: sh.ID, CampaignID: wc.id, Result: result, Spans: spans}
			if runErr != nil {
				// Deterministic failure: report it so the service fails the
				// campaign instead of retrying the same masks elsewhere.
				req.Result = nil
				req.Spans = nil
				req.Error = runErr.Error()
			} else if tel := opt.Telemetry; tel != nil {
				// Fold the shard into the worker's own aggregate before
				// completing, so the piggybacked snapshot already counts it.
				// A late duplicate of a requeued shard folds here too — this
				// worker really did the work, even if the merge discards the
				// copy; the campaign's merged collector stays exactly-once
				// regardless.
				foldShardResult(tel, wc, sh.Campaign, result)
				snap := tel.Snapshot()
				req.Snapshot = &snap
			}
			resp, err := cl.Complete(ctx, req)
			if err != nil {
				if !client.Retryable(err) {
					return err
				}
				// The merge is exactly-once: if the completion did land
				// before the connection broke, the requeued shard's second
				// delivery dedups.
				logf("worker %s: completing shard %d: %v", opt.ID, sh.ID, err)
				if err := sleep(time.Second); err != nil {
					return err
				}
				continue
			}
			// A campaign's end — failed, complete, or refusing this shard —
			// is its own terminal state, never the worker's.
			switch {
			case resp.Error != "":
				logf("worker %s: completing shard %d of %s: %s", opt.ID, sh.ID, wc.id, resp.Error)
			case runErr != nil:
				logf("worker %s: shard %d of %s failed: %v", opt.ID, sh.ID, wc.id, runErr)
			case !resp.Accepted:
				logf("worker %s: shard %d of %s was already completed elsewhere", opt.ID, sh.ID, wc.id)
			}
			if resp.Done || resp.Failed != "" {
				// The campaign is over; its config has no further use.
				delete(camps, wc.id)
				logf("worker %s: campaign %s ended (done %v, failed %q)", opt.ID, wc.id, resp.Done, resp.Failed)
			}
		default:
			return fmt.Errorf("dist: unknown lease status %q", lease.Status)
		}
	}
}

// foldShardResult commits one shard's outcomes to the worker's own
// collector — the commit the coordinator's merge uses, with no journal
// behind it. Replicated stubs are skipped: their
// verdicts are resolved by the coordinator's ledger, and counting a
// stub here would inflate the fleet totals relative to the merged view.
func foldShardResult(tel *telemetry.Collector, wc *workerCampaign, campaign int, res *core.ShardResult) {
	if res == nil {
		return
	}
	sinks, ok := wc.sinks[campaign]
	if !ok {
		cell := wc.cfg.Campaigns[campaign]
		key := wc.keys[campaign]
		sinks = &core.CellSinks{Key: key, Telemetry: tel, Row: tel.Campaign(key, cell.Tool, cell.Benchmark, cell.Structure)}
		wc.sinks[campaign] = sinks
	}
	for _, run := range res.Runs {
		if run.Pruned != "replicated" {
			tel.AddQueued(1)
			_ = sinks.Commit(run, false) // only a journal append can fail, and there is none
		}
	}
}

// runLeased executes one shard while a background goroutine keeps the
// lease alive. A lost lease (the ledger requeued the shard) does not
// abort the run — core.RunShard is not interruptible mid-mask and the
// completed result is still byte-identical, so it is sent anyway and
// deduplicated by the ledger.
//
// When the shard carries span context, the shard runs under a private
// per-shard tracer (span IDs prefixed "<worker>-s<shard>", so requeued
// shards executed by several workers never collide) whose buffered
// spans ship back with the completion.
func runLeased(ctx context.Context, opt WorkerOptions, cl *client.Client, wc *workerCampaign, sh api.Shard) (*core.ShardResult, []telemetry.Span, error) {
	heartbeat := opt.Heartbeat
	if heartbeat <= 0 {
		heartbeat = wc.ttl / 3
	}
	if heartbeat <= 0 {
		heartbeat = time.Second
	}
	hbCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		ticker := time.NewTicker(heartbeat)
		defer ticker.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-ticker.C:
				resp, err := cl.Heartbeat(hbCtx, api.HeartbeatRequest{WorkerID: opt.ID, ShardID: sh.ID, CampaignID: wc.id})
				if err == nil && !resp.OK && opt.Logf != nil {
					opt.Logf("worker %s: lease on shard %d lost", opt.ID, sh.ID)
				}
			}
		}
	}()
	att := core.Attach{Golden: opt.Golden}
	var buf *telemetry.SpanBuffer
	if sh.TraceID != "" {
		tracer := telemetry.NewTracer(sh.TraceID, opt.ID+"-s"+strconv.Itoa(sh.ID))
		buf = telemetry.NewSpanBuffer()
		tracer.AddSink(buf)
		att.Tracer = tracer
		att.TraceParent = sh.SpanID
		att.SpanWorker = opt.ID
	}
	res, err := core.RunShard(wc.cfg, sh.Campaign, sh.MaskLo, sh.MaskHi, opt.Resolve, att)
	if err != nil || buf == nil {
		return res, nil, err
	}
	return res, buf.Spans(), nil
}
