// Package dist is the distributed campaign layer, in two halves that
// share no state. Coordinator is one campaign's shard ledger: it slices
// the config's mask populations into shard ranges, grants them under
// heartbeat-extended leases, requeues the shards of dead workers,
// commits every merged outcome exactly once (journaling it when a
// journal is attached) and ends with per-campaign results byte-identical
// to a single-node run of the same config. It is pure in-memory
// bookkeeping behind method calls; the campaign service (internal/svc)
// is the one HTTP server in front of it and owns everything about the
// fleet that is not a lease. RunWorker is the other half: the client
// loop of a faultworker, which leases shards from that service and
// executes each with the same scheduler machinery a single-node run
// uses (core.RunShard).
//
// The protocol is deliberately small and stateless on the worker side:
// everything a worker needs to rebuild a campaign cell — masks,
// checkpoint placement, prune plan — derives deterministically from the
// config, so the wire carries only the config once per campaign plus
// {campaign, mask_lo, mask_hi} per shard. The wire types live in
// internal/svc/api.
package dist

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/svc/api"
	"repro/internal/telemetry"
)

// ErrCancelled is the terminal failure of a campaign cancelled through
// Cancel; errors.Is distinguishes operator cancellation from real
// failures.
var ErrCancelled = errors.New("dist: campaign cancelled")

// Signal is a broadcast edge: C returns a channel that the next Raise
// closes, which wakes every goroutine waiting on it. It is how a worker
// plane says it changed (see Coordinator.Changed): a waiter takes C
// before it looks at the state, so no change after the look is missed.
// The zero Signal is ready to use.
type Signal struct {
	mu     sync.Mutex
	ch     chan struct{}
	closed bool
}

// C returns the channel the next Raise closes, or nil once the signal is
// closed (a nil channel never fires: there is nothing left to wait for).
func (s *Signal) C() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if s.ch == nil {
		s.ch = make(chan struct{})
	}
	return s.ch
}

// Raise wakes every waiter on the current channel.
func (s *Signal) Raise() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ch != nil {
		close(s.ch)
		s.ch = nil
	}
}

// Close wakes every waiter for the last time: C answers nil from now on.
func (s *Signal) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.ch != nil {
		close(s.ch)
		s.ch = nil
	}
}

// CoordinatorOptions parameterize shard planning, lease terms, and the
// coordinator-side resources of a distributed campaign.
type CoordinatorOptions struct {
	// ShardSize is the number of masks per shard (default 50). Smaller
	// shards spread better and re-run less on worker death; larger ones
	// amortize the per-shard plan rebuild on the worker.
	ShardSize int
	// LeaseTTL is how long a worker may hold a shard without
	// heartbeating before the coordinator requeues it (default 10s).
	LeaseTTL time.Duration
	// MaxRetries bounds how many times one shard may be requeued after
	// lease expiry before the campaign fails (default 3).
	MaxRetries int
	// RetryBackoff delays a requeued shard's next assignment by
	// backoff×retries (default 1s).
	RetryBackoff time.Duration
	// Telemetry, when non-nil, receives the merged event stream — one
	// run-end event per mask, with the same provenance a single-node run
	// emits, so progress lines, snapshots and trace sinks aggregate
	// across shards unchanged.
	Telemetry *telemetry.Collector
	// JournalFor, when non-nil, opens the durable run journal of a
	// campaign key; New calls it once per cell. The coordinator commits
	// every merged outcome against it — simulated and stopped-early rows
	// append, as in a single-node -journal campaign — which makes it the
	// exactly-once completion ledger of the distributed campaign
	// (workers never journal).
	JournalFor func(key string) (*fault.Journal, error)
	// Tracer, when non-nil, assembles the campaign's end-to-end span
	// tree: a root campaign span, a pre-identified shard span per shard
	// (workers parent their matrix spans under it via Shard.SpanID), a
	// coordinator-side merge phase per completion, and every worker
	// span forwarded on arrival.
	Tracer *telemetry.Tracer
	// Logf, when non-nil, receives coordinator lifecycle lines (lease
	// grants, requeues, duplicates).
	Logf func(format string, args ...any)
	// Cell materializes the deterministic mask population of one
	// campaign cell and, when the config arms sequential early stopping
	// (stop_margin), the cell's fresh core.StopRule over the masks its
	// plan simulates (nil when it simulates none) — the rule a
	// single-node run of the same config drives (see
	// core.CampaignConfig.StopRules). Required with stop_margin: the
	// coordinator feeds the rule and settles every mask it cancels as a
	// stopped-early provenance row, and those rows need the mask's sites
	// and sampling weight even though no worker ever simulated them.
	Cell func(campaign int) ([]fault.Mask, *core.StopRule, error)

	// Resume replays the campaign's durable run journals before serving
	// any lease: journaled runs settle in the cells' ledgers (and the
	// stopping rules re-derive any stop decision from the real
	// completions, exactly like the single-node resume), fully-replayed
	// shards never lease again, and the journals are never re-appended
	// for replayed masks. Requires JournalFor and Cell.
	Resume bool

	// now is the clock; tests compress lease time.
	now func() time.Time
}

// orDefault is v when it is positive, else def: the coordinator's knobs
// take their defaults from zero or negative values.
func orDefault[T int | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// Stats is a point-in-time view of the coordinator's shard accounting.
type Stats struct {
	Shards     int // planned shards
	Completed  int // shards merged
	Requeues   int // lease expiries that put a shard back on the queue
	Duplicates int // completions of already-completed shards (discarded)
	Cancelled  int // shards cancelled by a cell's early-stop decision
}

const (
	shardQueued = iota
	shardLeased
	shardCompleted
)

type shardState struct {
	shard    api.Shard
	state    int
	worker   string
	expiry   time.Time // lease deadline while leased
	eligible time.Time // earliest next assignment while queued
	leased   time.Time // when the current lease was granted (span start)
	retries  int
}

// cellState is one campaign cell as the coordinator settles it: its
// core.CellLedger (the settle table a single-node run settles the cell
// with), its journal, the golden header the first merged shard supplied
// and, in an adaptive campaign, the commit-order buffer through which
// the coordinator drives the cell's core.StopRule, the rule the
// single-node scheduler drives. Workers always run their whole shard
// (RunShard disarms the local rule); the coordinator owns the global
// decision and keeps the rule's input order fixed: merged rows buffer in
// pend until every lower mask index has merged, then commit in mask
// order, each noted to the rule. The decision therefore depends only on
// the config, never on shard size, worker count, or merge timing — a 1-,
// 2- and 4-worker fleet stop at the identical cutoff, and journals,
// records and divergence files come out identical to a single-node run's.
type cellState struct {
	ledger    *core.CellLedger
	journal   *fault.Journal
	golden    core.GoldenInfo // the header of the first shard merged
	goldenSet bool
	masks     []fault.Mask // the Cell population, once materialized

	rule     *core.StopRule
	pend     []*core.ShardRun // merged-but-uncommitted rows, by mask index; nil unless adaptive
	frontier int              // mask indices [0, frontier) committed
	settled  bool             // the stopped tail has been settled
}

// Coordinator is one campaign's shard ledger: it plans the config into
// mask-range shards, grants them under leases, and merges completed
// shards into per-campaign results identical to a single-node run.
type Coordinator struct {
	cfg  core.CampaignConfig
	opt  CoordinatorOptions
	keys []string

	mu        sync.Mutex
	shards    []*shardState
	remaining int
	// cells settle every merged outcome of a cell through its ledger,
	// which keeps the divergence rows when the config measures
	// divergence, and its sinks: the merged collector and its campaign
	// row and the cell's journal (opened at New).
	cells       []*cellState
	resumedRuns int
	rootSpan    *telemetry.ActiveSpan
	stats       Stats
	failure     error
	finished    bool
	doneCh      chan struct{}
	results     []*core.CampaignResult
	// changed is raised whenever a lease request could get a different
	// answer: a shard completes or is requeued, the campaign ends.
	changed Signal
}

// New validates the config, plans the shard queue, and registers the
// campaign rows with the telemetry collector.
func New(cfg core.CampaignConfig, opt CoordinatorOptions) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Exhaustive {
		return nil, fmt.Errorf("dist: exhaustive campaigns have no fixed shard geometry (the census size is profile-derived); run them single-node")
	}
	switch {
	case cfg.StopMargin > 0 && opt.Cell == nil:
		return nil, fmt.Errorf("dist: adaptive campaigns (stop_margin) need CoordinatorOptions.Cell for their stopping rules")
	case opt.Resume && (opt.JournalFor == nil || opt.Cell == nil):
		return nil, fmt.Errorf("dist: resume requires CoordinatorOptions.JournalFor, and Cell to validate journaled masks")
	}
	if cfg.SchemaVersion == 0 {
		// Stamp the lowest version that can express the config: configs
		// without detail-window fields are served as version 1 so legacy
		// workers keep accepting them.
		cfg.SchemaVersion = cfg.WireSchemaVersion()
	}
	opt.ShardSize = orDefault(opt.ShardSize, 50)
	opt.LeaseTTL = orDefault(opt.LeaseTTL, 10*time.Second)
	opt.MaxRetries = orDefault(opt.MaxRetries, 3)
	opt.RetryBackoff = orDefault(opt.RetryBackoff, time.Second)
	if opt.now == nil {
		opt.now = time.Now
	}
	c := &Coordinator{cfg: cfg, opt: opt, keys: cfg.Keys(), cells: make([]*cellState, len(cfg.Campaigns)), doneCh: make(chan struct{})}
	total := 0
	size := opt.ShardSize
	for i := range cfg.Campaigns {
		n := cfg.MaskCount(i)
		total += n
		for lo := 0; lo < n; lo += size {
			c.shards = append(c.shards, &shardState{shard: api.Shard{ID: len(c.shards), Campaign: i, MaskLo: lo, MaskHi: min(lo+size, n)}})
		}
	}
	c.remaining = len(c.shards)
	c.stats.Shards = len(c.shards)
	if tr := opt.Tracer; tr != nil {
		// The root span opens now and closes when the campaign finishes;
		// each shard's span ID is minted up front so workers can parent
		// their spans under it before the shard span itself is emitted.
		c.rootSpan = tr.Begin(telemetry.SpanCampaign, "campaign", "")
		for _, s := range c.shards {
			s.shard.TraceID = tr.TraceID()
			s.shard.SpanID = tr.NewSpanID()
		}
	}
	if tel := opt.Telemetry; tel != nil {
		// Worker pools live in the worker processes; the coordinator has
		// no pool of its own, so the utilization gauge stays off.
		tel.Start(0)
		tel.AddQueued(total)
	}
	for i, cell := range cfg.Campaigns {
		cl := &cellState{}
		c.cells[i] = cl
		// Group commit: a merge queues its journal lines and Complete
		// writes them with one fsync before it acknowledges the shard.
		sk := core.CellSinks{Key: c.keys[i], GroupCommit: true}
		if tel := opt.Telemetry; tel != nil {
			sk.Telemetry, sk.Row = tel, tel.Campaign(c.keys[i], cell.Tool, cell.Benchmark, cell.Structure)
		}
		var err error
		if cfg.StopMargin > 0 {
			cl.masks, cl.rule, err = c.cell(i)
			cl.pend = make([]*core.ShardRun, len(cl.masks))
		}
		if err == nil && opt.JournalFor != nil {
			if cl.journal, err = opt.JournalFor(c.keys[i]); err != nil {
				err = fmt.Errorf("dist: opening journal for %s: %w", c.keys[i], err)
			}
			sk.Journal = cl.journal
		}
		if err != nil {
			c.Close()
			return nil, err
		}
		// With divergence on, the ledger keeps each merged mask's row,
		// projected from the outcome the worker shipped (a replicated row
		// from its resolution), so the results carry the rows a
		// single-node run of the same config does.
		cl.ledger = core.NewCellLedger(sk, cfg.MaskCount(i), cfg.Divergence)
	}
	if opt.Resume {
		if err := c.resume(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// resume replays the durable run journals of a previous coordinator
// process into the cells' ledgers. Journaled simulated runs commit
// through the same frontier machinery live merges use — so the adaptive
// stop decision re-derives from the real completions alone, at the
// identical boundary, regardless of where the crash fell — and journaled
// stop rows are only noted (CellLedger.Journaled): they never feed the
// estimators, and the re-derived decision settles them flagged Resumed.
// Shards whose whole window replayed never lease again, except that one shard
// per cell is kept queued while the cell's golden header is unknown: the
// journal carries no golden run, so one worker re-runs a shard (its rows
// dedup against the ledger) purely to re-supply the fault-free
// reference.
func (c *Coordinator) resume() error {
	for i, cl := range c.cells {
		entries := cl.journal.Entries()
		if len(entries) == 0 {
			continue
		}
		var err error
		if cl.masks == nil {
			if cl.masks, _, err = c.cell(i); err != nil {
				return err
			}
		}
		runs, err := core.ReplayJournal(c.keys[i], entries, cl.masks)
		if err != nil {
			return err
		}
		// Mask order is commit order, whatever order the lines are in.
		for idx := range cl.masks {
			run, ok := runs[idx]
			switch {
			case !ok:
			case run.Stopped():
				cl.ledger.Journaled(run)
			case cl.pend != nil:
				c.resumedRuns++
				cl.pend[idx] = &run
			default:
				c.resumedRuns++
				if err := cl.ledger.Settle(run, false); err != nil {
					return err
				}
			}
		}
		if err := c.advanceFrontierLocked(cl); err != nil {
			return err
		}
	}
	if err := c.settleStopsLocked(); err != nil {
		return err
	}
	for i, cl := range c.cells {
		var full []*shardState
		partial := false
		for _, s := range c.shards {
			if s.shard.Campaign != i || s.state != shardQueued {
				continue
			}
			f := true
			for m := s.shard.MaskLo; m < s.shard.MaskHi && f; m++ {
				f = cl.merged(m)
			}
			if f {
				full = append(full, s)
			} else {
				partial = true
			}
		}
		for k, s := range full {
			if k == 0 && !partial && !cl.goldenSet {
				continue // kept queued: a worker re-runs it for the golden header
			}
			c.retireLocked(s, "")
			c.stats.Completed++
		}
	}
	if c.resumedRuns > 0 {
		c.logf("dist: resumed %d journaled runs; %d/%d shards already complete", c.resumedRuns, c.stats.Completed, c.stats.Shards)
	}
	if err := c.flushLocked(); err != nil {
		return err
	}
	c.finalizeLocked()
	return nil
}

// ResumedRuns reports how many journaled runs the coordinator replayed
// at startup (zero unless Resume was set).
func (c *Coordinator) ResumedRuns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumedRuns
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// Stats returns the current shard accounting.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// failLocked records the first terminal error and wakes Wait.
func (c *Coordinator) failLocked(err error) {
	if c.failure == nil {
		c.failure = err
	}
	c.finishLocked()
}

func (c *Coordinator) finishLocked() {
	if !c.finished {
		c.finished = true
		if c.rootSpan != nil {
			c.rootSpan.End()
		}
		close(c.doneCh)
		c.changed.Raise()
	}
}

// Changed returns a channel closed at the coordinator's next change — a
// shard completes or is requeued, or the campaign ends — the wake-up of
// a held lease request (svc.WorkerPlane).
func (c *Coordinator) Changed() <-chan struct{} { return c.changed.C() }

// flushLocked writes the journal lines the cells' ledgers queued, one
// append and one fsync per cell that has any.
func (c *Coordinator) flushLocked() error {
	for _, cl := range c.cells {
		if err := cl.ledger.Flush(); err != nil {
			return fmt.Errorf("dist: %w", err)
		}
	}
	return nil
}

// retireLocked takes shard s off the queue for good, crediting worker
// (empty for a shard no worker completed).
func (c *Coordinator) retireLocked(s *shardState, worker string) {
	s.state, s.worker = shardCompleted, worker
	c.remaining--
}

// sweepLocked requeues the shards of workers that stopped heartbeating.
// Called on every lease and from Wait's ticker, so dead workers are
// noticed even when no one else asks for work.
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, s := range c.shards {
		if s.state != shardLeased || s.expiry.After(now) {
			continue
		}
		s.retries++
		if s.retries > c.opt.MaxRetries {
			c.failLocked(fmt.Errorf("dist: shard %d (campaign %d masks [%d,%d)) lost its lease %d times; giving up",
				s.shard.ID, s.shard.Campaign, s.shard.MaskLo, s.shard.MaskHi, s.retries))
			return
		}
		c.logf("dist: shard %d lease by %s expired; requeued (retry %d)", s.shard.ID, s.worker, s.retries)
		s.state = shardQueued
		s.worker = ""
		s.eligible = now.Add(time.Duration(s.retries) * c.opt.RetryBackoff)
		c.stats.Requeues++
		c.changed.Raise()
	}
}

// Config returns the campaign config and lease terms a worker is
// served; the service stamps the campaign ID onto it.
func (c *Coordinator) Config() api.ConfigResponse {
	return api.ConfigResponse{
		ProtocolVersion: api.ProtocolVersion,
		Config:          c.cfg,
		LeaseTTLMS:      c.opt.LeaseTTL.Milliseconds(),
	}
}

// Cancel terminates the campaign: every outstanding shard is retired
// (queued ones never lease again; a holder's next heartbeat reports the
// lease lost, and a late completion dedups) and Wait returns an error
// wrapping ErrCancelled. Idempotent; a no-op once the campaign finished.
func (c *Coordinator) Cancel(reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished {
		return
	}
	if reason == "" {
		reason = "cancelled"
	}
	for _, s := range c.shards {
		if s.state != shardCompleted {
			c.retireLocked(s, "")
			c.stats.Cancelled++
		}
	}
	c.failLocked(fmt.Errorf("%w: %s", ErrCancelled, reason))
}

// Lease grants a shard (or a wait/terminal status) to a polling worker.
func (c *Coordinator) Lease(workerID string) api.LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opt.now()
	c.sweepLocked(now)
	if c.failure != nil {
		return api.LeaseResponse{Status: api.StatusFailed, Error: c.failure.Error()}
	}
	if c.remaining == 0 {
		return api.LeaseResponse{Status: api.StatusDone}
	}
	var nearest time.Time
	for _, s := range c.shards {
		switch s.state {
		case shardQueued:
			if !s.eligible.After(now) {
				s.state = shardLeased
				s.worker = workerID
				s.expiry = now.Add(c.opt.LeaseTTL)
				s.leased = now
				c.logf("dist: shard %d leased to %s", s.shard.ID, workerID)
				sh := s.shard
				return api.LeaseResponse{Status: api.StatusShard, Shard: &sh}
			}
			if nearest.IsZero() || s.eligible.Before(nearest) {
				nearest = s.eligible
			}
		case shardLeased:
			if nearest.IsZero() || s.expiry.Before(nearest) {
				nearest = s.expiry
			}
		}
	}
	wait := time.Second
	if !nearest.IsZero() {
		wait = min(max(nearest.Sub(now), 50*time.Millisecond), time.Second)
	}
	return api.LeaseResponse{Status: api.StatusWait, WaitMS: wait.Milliseconds()}
}

// Heartbeat extends a worker's shard lease.
func (c *Coordinator) Heartbeat(req api.HeartbeatRequest) api.HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.ShardID < 0 || req.ShardID >= len(c.shards) {
		return api.HeartbeatResponse{}
	}
	s := c.shards[req.ShardID]
	now := c.opt.now()
	if s.state != shardLeased || s.worker != req.WorkerID || !s.expiry.After(now) {
		return api.HeartbeatResponse{}
	}
	s.expiry = now.Add(c.opt.LeaseTTL)
	return api.HeartbeatResponse{OK: true}
}

// ackLocked stamps the campaign's terminal state onto a completion ack,
// so the delivering worker learns it without another round trip.
func (c *Coordinator) ackLocked(r api.CompleteResponse) api.CompleteResponse {
	if c.failure != nil {
		r.Failed = c.failure.Error()
	} else if c.finished {
		r.Done = true
	}
	return r
}

// Complete accepts a shard completion and merges its result.
func (c *Coordinator) Complete(req api.CompleteRequest) api.CompleteResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.ShardID < 0 || req.ShardID >= len(c.shards) {
		return api.CompleteResponse{Error: fmt.Sprintf("dist: no shard %d", req.ShardID)}
	}
	s := c.shards[req.ShardID]
	if req.Error != "" {
		// Shard execution is deterministic: the same masks would fail the
		// same way on any worker, so a reported error fails the campaign.
		c.failLocked(fmt.Errorf("dist: worker %s failed shard %d (campaign %d masks [%d,%d)): %s",
			req.WorkerID, s.shard.ID, s.shard.Campaign, s.shard.MaskLo, s.shard.MaskHi, req.Error))
		return c.ackLocked(api.CompleteResponse{OK: true})
	}
	if s.state == shardCompleted {
		// A requeued shard finished twice (the original worker was slow,
		// not dead). The late copy is byte-identical by determinism;
		// discard it — the per-mask ledger stays exactly-once.
		c.stats.Duplicates++
		c.logf("dist: duplicate completion of shard %d by %s discarded", s.shard.ID, req.WorkerID)
		return c.ackLocked(api.CompleteResponse{OK: true})
	}
	mergeStart := time.Now()
	if err := c.mergeLocked(s.shard, req.Result); err != nil {
		// Journal the rows settled before the rejected one, as before; the
		// campaign fails with the merge's error whatever the flush says.
		_ = c.flushLocked()
		c.failLocked(err)
		return c.ackLocked(api.CompleteResponse{OK: true})
	}
	c.retireLocked(s, req.WorkerID)
	c.stats.Completed++
	// A merge may have fired a cell's stopping rule; settle the cancelled
	// masks and shards after this shard's own bookkeeping so the
	// cancellation sweep never double-counts it. Then one write and one
	// fsync journal every row the merge settled, before anything is
	// acknowledged: a crash before it leaves the shard unacknowledged,
	// and a resume leases it again.
	err := c.settleStopsLocked()
	if ferr := c.flushLocked(); err == nil {
		err = ferr
	}
	if err != nil {
		c.failLocked(err)
		return c.ackLocked(api.CompleteResponse{OK: true})
	}
	if tr := c.opt.Tracer; tr != nil {
		// Worker spans first (they are the shard span's subtree), then
		// the coordinator-side merge phase, then the shard span itself —
		// its ID was pre-minted at plan time so the subtree already
		// parents correctly.
		for _, sp := range req.Spans {
			tr.Forward(sp)
		}
		end := time.Now()
		tr.Emit(telemetry.Span{
			SpanID: tr.NewSpanID(), ParentID: s.shard.SpanID,
			Kind: telemetry.SpanPhase, Name: "merge", Worker: req.WorkerID,
			StartUnixNS: mergeStart.UnixNano(), EndUnixNS: end.UnixNano(),
		})
		tr.Emit(telemetry.Span{
			SpanID: s.shard.SpanID, ParentID: c.rootSpan.ID(),
			Kind: telemetry.SpanShard, Name: fmt.Sprintf("shard-%d", s.shard.ID), Worker: req.WorkerID,
			StartUnixNS: s.leased.UnixNano(), EndUnixNS: end.UnixNano(),
		})
	}
	c.logf("dist: shard %d completed by %s (%d/%d)", s.shard.ID, req.WorkerID, c.stats.Completed, c.stats.Shards)
	c.changed.Raise()
	c.finalizeLocked()
	return c.ackLocked(api.CompleteResponse{OK: true, Accepted: true})
}

// mergeLocked checks one shard result and settles its outcomes — the
// ones the shard's scheduler built — in the cell's ledger.
func (c *Coordinator) mergeLocked(sh api.Shard, res *core.ShardResult) error {
	if res == nil {
		return fmt.Errorf("dist: shard %d completed without a result", sh.ID)
	}
	cl := c.cells[sh.Campaign]
	if err := cl.ledger.CheckRows(sh.MaskLo, sh.MaskHi, res.Runs); err != nil {
		return fmt.Errorf("dist: shard %d: %w", sh.ID, err)
	}
	if !cl.goldenSet {
		cl.golden, cl.goldenSet = res.Golden, true
	} else if !reflect.DeepEqual(cl.golden, res.Golden) {
		// Deterministic simulators must agree on the fault-free reference;
		// a mismatch means the fleet runs divergent builds.
		return fmt.Errorf("dist: shard %d golden header disagrees with campaign %d's (mixed worker builds?)", sh.ID, sh.Campaign)
	}
	for _, run := range res.Runs {
		if cl.pend == nil || cl.settled {
			// The ledger keeps the first settle of an index; on a settled
			// cell the only open masks left are pruned/replicated holes a
			// resumed coordinator could not replay from the journal.
			if err := cl.ledger.Settle(run, false); err != nil {
				return err
			}
		} else if !cl.merged(run.Index) {
			// Adaptive cells commit in mask order through the frontier
			// below, never directly — merge order must not influence the
			// stop decision or the artifact byte streams.
			cl.pend[run.Index] = &run
		}
	}
	return c.advanceFrontierLocked(cl)
}

// merged reports whether mask m has merged: the ledger knows it, or it
// is buffered for the frontier.
func (cl *cellState) merged(m int) bool {
	return cl.ledger.Known(m) || cl.pend != nil && cl.pend[m] != nil
}

// advanceFrontierLocked commits the contiguous prefix of buffered rows
// of an adaptive cell, noting each to the cell's rule, and stops at the
// row that fires it: the rule cancels everything past that row.
func (c *Coordinator) advanceFrontierLocked(cl *cellState) error {
	for !cl.rule.Stopped() && cl.frontier < len(cl.pend) && cl.pend[cl.frontier] != nil {
		run := *cl.pend[cl.frontier]
		if err := cl.ledger.Settle(run, false); err != nil {
			return err
		}
		cl.pend[cl.frontier] = nil
		cl.frontier++
		cl.rule.Note(run.Index, string(run.Class()))
	}
	return nil
}

// cell calls the Cell hook for one cell and checks its population
// against the config.
func (c *Coordinator) cell(i int) ([]fault.Mask, *core.StopRule, error) {
	m, rule, err := c.opt.Cell(i)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: materializing campaign %d's masks: %w", i, err)
	}
	if n := c.cfg.MaskCount(i); len(m) != n {
		return nil, nil, fmt.Errorf("dist: campaign %d: Cell returned %d masks, config promises %d", i, len(m), n)
	}
	return m, rule, nil
}

// settleStopsLocked settles the cancelled tail of every freshly stopped
// cell in its ledger — the settle a single-node run ends a stopped cell
// with — and cancels the cell's outstanding shards: queued ones never
// lease again, and a late completion from a still-running worker is
// discarded as a duplicate.
func (c *Coordinator) settleStopsLocked() error {
	for i, cl := range c.cells {
		if !cl.rule.Stopped() || cl.settled {
			continue
		}
		cl.settled = true
		clear(cl.pend) // every buffered row lies past the cutoff
		if err := cl.ledger.SettleStopped(cl.rule, cl.masks); err != nil {
			return err
		}
		// The cancellation sweep retires the cell's outstanding shards —
		// except, on a resumed coordinator that has never heard from a
		// worker for this cell, one shard stays queued so a worker can
		// re-supply the golden header the journal does not carry.
		keep := -1
		if !cl.goldenSet {
			for _, s := range c.shards {
				if s.shard.Campaign == i && s.state != shardCompleted {
					keep = s.shard.ID
					break
				}
			}
		}
		cancelled := 0
		for _, s := range c.shards {
			if s.shard.Campaign != i || s.state == shardCompleted || s.shard.ID == keep {
				continue
			}
			c.retireLocked(s, "")
			c.stats.Cancelled++
			cancelled++
		}
		info := cl.rule.Info()
		c.logf("dist: campaign %d stopped early after %d simulated runs (margin %.4f); %d shards cancelled",
			i, info.SimulatedRuns, info.EffectiveMargin, cancelled)
	}
	return nil
}

// finalizeLocked ends the campaign once every shard is in and nothing
// failed: each cell's ledger checks that every mask settled and builds
// the cell's result.
func (c *Coordinator) finalizeLocked() {
	if c.remaining > 0 || c.failure != nil {
		return
	}
	results := make([]*core.CampaignResult, len(c.cells))
	for i, cl := range c.cells {
		var err error
		if results[i], err = cl.ledger.Result(cl.golden, cl.rule); err != nil {
			c.failLocked(fmt.Errorf("dist: campaign %d: %w", i, err))
			return
		}
	}
	c.results = results
	c.finishLocked()
}

// Wait blocks until every shard has completed (returning the merged
// per-campaign results, in config cell order) or the campaign fails.
// It also drives the lease sweep, so dead workers are requeued even
// when no live worker is polling.
func (c *Coordinator) Wait(ctx context.Context) ([]*core.CampaignResult, error) {
	tick := c.opt.LeaseTTL / 2
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-c.doneCh:
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.failure != nil {
				return nil, c.failure
			}
			return c.results, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
			c.mu.Lock()
			c.sweepLocked(c.opt.now())
			c.mu.Unlock()
		}
	}
}

// Close closes the journals the coordinator opened.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, cl := range c.cells {
		if cl != nil && cl.journal != nil {
			if err := cl.journal.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
