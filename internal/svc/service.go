package svc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/svc/api"
	"repro/internal/telemetry"
)

// Tenant is one API tenant of the campaign service: a bearer token and
// a concurrency quota. With no tenants configured the service runs in
// open mode — every request acts as the anonymous tenant with no quota.
type Tenant struct {
	Name  string
	Token string
	// MaxActive caps the tenant's concurrently running campaigns;
	// submissions beyond it queue until a slot frees. 0 means no cap.
	MaxActive int
}

// Options configure a Service.
type Options struct {
	// Logs is the root logs repository. Campaign artifacts go into a
	// per-campaign subdirectory unless the submission asks for Flat.
	Logs *core.LogsRepo
	// Spool is the durable campaign queue.
	Spool *Spool
	// Index is the queryable result repository fed at finalize time.
	Index *fault.ResultIndex
	// Resolve maps (tool, benchmark) to a simulator factory — the
	// service validates submissions against it and builds the mask
	// populations an adaptive or resumed coordinator needs.
	Resolve core.Resolver

	// Tenants enables bearer-token authentication; empty runs open.
	Tenants []Tenant
	// MaxActive caps concurrently running campaigns service-wide
	// (default 4). MaxQueuedPerTenant, when set, bounds a tenant's
	// non-terminal campaigns — submissions beyond it are rejected with
	// quota_exceeded rather than queued.
	MaxActive          int
	MaxQueuedPerTenant int

	// Coordinator knobs, shared by every campaign.
	ShardSize    int
	LeaseTTL     time.Duration
	MaxRetries   int
	RetryBackoff time.Duration

	// ExitWhenIdle makes the lease endpoint answer "done" once every
	// submitted campaign is terminal, so a fleet drains and exits —
	// the one-shot compatibility mode. An always-on service leaves it
	// off and workers idle-poll between campaigns.
	ExitWhenIdle bool

	Logf func(format string, args ...any)

	now func() time.Time // test hook
}

// campaign is the in-memory lifecycle state of one spooled campaign.
// The entry is the durable truth; everything else is live plumbing,
// nil until the campaign starts (and for terminal campaigns restored
// from the spool).
type campaign struct {
	entry *SpoolEntry

	// coord is the shard ledger while the campaign runs. finish drops it
	// — per-mask records, results and memoised masks go with it — and
	// keeps its last accounting in shards, so a daemon's memory does not
	// grow with the campaigns it has served.
	coord  *dist.Coordinator
	shards dist.Stats
	// tel and events back the campaign's observability endpoints, which
	// keep answering after it ends.
	tel    *telemetry.Collector
	events *telemetry.EventStream

	// cancelReason, once set, cancels the campaign as soon as a
	// coordinator exists — it covers the gap where a cancel lands
	// while the campaign is still planning.
	cancelReason string
}

// workerView is one row of the fleet table — the only place worker
// liveness, leases and telemetry are kept: one row per worker that has
// leased, heartbeated, completed or pushed a snapshot, across all
// campaigns. The shard ledgers know a lease's holder, nothing else.
type workerView struct {
	lastSeen time.Time
	campaign string         // campaign of the held lease, "" when idle
	shard    int            // shard of the held lease, -1 when idle
	done     map[string]int // accepted shards per campaign served
	snap     *telemetry.Snapshot
	final    bool // posted its final snapshot (draining or exited)
}

// Service is the always-on multi-campaign engine and the one server of
// the distributed layer: it owns the spool, schedules queued campaigns
// under the quotas, keeps each running campaign's shards in its own
// dist.Coordinator ledger, and multiplexes one shared worker fleet —
// whose table it keeps — across all of them (leases carry the campaign
// ID).
type Service struct {
	opt     Options
	byName  map[string]*Tenant
	byToken map[string]*Tenant

	// ctx ends when the service closes; campaign goroutines wait on it,
	// never on a request-scoped context.
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	// golden serves the mask populations the daemon itself has to
	// generate (adaptive and resumed campaigns) for as long as it lives:
	// two campaigns on one row simulate its golden run once.
	golden *core.GoldenCache

	mu      sync.Mutex
	seq     int64
	camps   map[string]*campaign
	workers map[string]*workerView
	closed  bool

	// changed wakes held lease requests: it is raised when a coordinator
	// is published, a running campaign's ledger changes (forwarded from
	// its Coordinator.Changed), or a campaign ends or is cancelled.
	changed dist.Signal
}

// New builds a Service, restoring the spool: terminal campaigns become
// queryable history, queued ones re-enter the queue, and campaigns
// that were live when the previous daemon died are re-enqueued with
// Resumed set — when they journaled their runs, their coordinators
// replay the journals instead of re-running finished masks.
func New(opt Options) (*Service, error) {
	if opt.Logs == nil || opt.Spool == nil || opt.Index == nil || opt.Resolve == nil {
		return nil, errors.New("svc: Logs, Spool, Index and Resolve are required")
	}
	if opt.MaxActive <= 0 {
		opt.MaxActive = 4
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	if opt.now == nil {
		opt.now = time.Now
	}
	s := &Service{
		opt:     opt,
		byName:  make(map[string]*Tenant),
		byToken: make(map[string]*Tenant),
		golden:  core.NewGoldenCache(),
		camps:   make(map[string]*campaign),
		workers: make(map[string]*workerView),
	}
	s.ctx, s.stop = context.WithCancel(context.Background())
	s.golden.Logf = opt.Logf
	for i := range opt.Tenants {
		t := &opt.Tenants[i]
		if t.Name == "" || t.Token == "" {
			return nil, fmt.Errorf("svc: tenant %d: name and token are required", i)
		}
		if _, dup := s.byName[t.Name]; dup {
			return nil, fmt.Errorf("svc: duplicate tenant %q", t.Name)
		}
		if _, dup := s.byToken[t.Token]; dup {
			return nil, fmt.Errorf("svc: tenants %q and %q share a token", s.byToken[t.Token].Name, t.Name)
		}
		s.byName[t.Name] = t
		s.byToken[t.Token] = t
	}
	entries, err := opt.Spool.Scan()
	if err != nil {
		return nil, err
	}
	requeued := 0
	for _, e := range entries {
		if e.Seq >= s.seq {
			s.seq = e.Seq + 1
		}
		if !api.TerminalState(e.State) {
			if e.State != api.StateQueued {
				e.Resumed = true
				requeued++
			}
			e.State = api.StateQueued
			if err := opt.Spool.PutState(e); err != nil {
				return nil, err
			}
		}
		s.camps[e.ID] = &campaign{entry: e}
	}
	if len(entries) > 0 {
		s.opt.Logf("svc: restored %d campaigns from spool (%d re-enqueued mid-run)", len(entries), requeued)
	}
	s.mu.Lock()
	s.scheduleLocked()
	s.mu.Unlock()
	return s, nil
}

// Close stops the scheduler and waits for the campaign goroutines to
// park. Running campaigns are NOT cancelled: their spool entries stay
// live, so the next daemon on the same spool resumes them — Close is
// the graceful half of what a SIGKILL leaves behind anyway.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.stop()
	s.mu.Unlock()
	s.changed.Close()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.camps {
		if c.events != nil {
			c.events.Close()
		}
	}
}

func (s *Service) stopping() bool { return s.ctx.Err() != nil }

func apiErr(status int, code, format string, args ...any) *api.Error {
	return &api.Error{StatusCode: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// ---------------------------------------------------------------------
// Campaign API.

// Submit validates and enqueues a campaign for the tenant, returning
// its initial status. All errors are *api.Error.
func (s *Service) Submit(tenant string, req api.SubmitRequest) (api.CampaignStatus, error) {
	if req.SchemaVersion > api.SubmitSchemaVersion {
		return api.CampaignStatus{}, apiErr(http.StatusBadRequest, api.CodeBadRequest,
			"submit schema version %d newer than this service (%d)", req.SchemaVersion, api.SubmitSchemaVersion)
	}
	cfg := req.Config
	if err := cfg.Validate(); err != nil {
		return api.CampaignStatus{}, apiErr(http.StatusBadRequest, api.CodeBadRequest, "invalid config: %v", err)
	}
	// Fail fast on what is checkable without a simulator: unknown tools
	// and benchmarks die at submission, not on the first worker.
	for i, cell := range cfg.Campaigns {
		if _, err := s.opt.Resolve(cell.Tool, cell.Benchmark); err != nil {
			return api.CampaignStatus{}, apiErr(http.StatusBadRequest, api.CodeBadRequest, "campaigns[%d]: %v", i, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return api.CampaignStatus{}, apiErr(http.StatusServiceUnavailable, api.CodeUnavailable, "service shutting down")
	}
	if s.opt.MaxQueuedPerTenant > 0 {
		open := 0
		for _, c := range s.camps {
			if c.entry.Tenant == tenant && !api.TerminalState(c.entry.State) {
				open++
			}
		}
		if open >= s.opt.MaxQueuedPerTenant {
			return api.CampaignStatus{}, apiErr(http.StatusTooManyRequests, api.CodeQuotaExceeded,
				"tenant %q already has %d open campaigns", tenant, open)
		}
	}
	id := fmt.Sprintf("c%05d", s.seq)
	e := &SpoolEntry{
		SchemaVersion:   SpoolSchemaVersion,
		ID:              id,
		Seq:             s.seq,
		Tenant:          tenant,
		Name:            req.Name,
		Priority:        req.Priority,
		State:           api.StateQueued,
		SubmittedUnixNS: s.opt.now().UnixNano(),
		Options:         req.Options,
		Config:          cfg,
	}
	s.seq++
	if err := s.opt.Spool.Put(e); err != nil {
		return api.CampaignStatus{}, apiErr(http.StatusInternalServerError, api.CodeInternal, "spooling campaign: %v", err)
	}
	c := &campaign{entry: e}
	s.camps[id] = c
	s.opt.Logf("svc: campaign %s submitted by %q (%d cells, priority %d)", id, tenant, len(cfg.Campaigns), e.Priority)
	s.scheduleLocked()
	return s.statusLocked(c), nil
}

// lookup returns the tenant's campaign; unknown IDs and other tenants'
// campaigns are both not_found, so IDs cannot be probed across tenants.
func (s *Service) lookupLocked(tenant, id string) (*campaign, error) {
	c := s.camps[id]
	if c == nil || (len(s.byName) > 0 && c.entry.Tenant != tenant) {
		return nil, apiErr(http.StatusNotFound, api.CodeNotFound, "no campaign %q", id)
	}
	return c, nil
}

// Get returns one campaign's status.
func (s *Service) Get(tenant, id string) (api.CampaignStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.lookupLocked(tenant, id)
	if err != nil {
		return api.CampaignStatus{}, err
	}
	return s.statusLocked(c), nil
}

// List returns the tenant's campaigns in submission order.
func (s *Service) List(tenant string) api.CampaignList {
	s.mu.Lock()
	defer s.mu.Unlock()
	var cs []*campaign
	for _, c := range s.camps {
		if len(s.byName) > 0 && c.entry.Tenant != tenant {
			continue
		}
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].entry.Seq < cs[j].entry.Seq })
	out := api.CampaignList{SchemaVersion: api.SubmitSchemaVersion, Campaigns: make([]api.CampaignStatus, 0, len(cs))}
	for _, c := range cs {
		out.Campaigns = append(out.Campaigns, s.statusLocked(c))
	}
	return out
}

// Cancel cancels a queued or running campaign (idempotent on terminal
// ones). A running campaign's coordinator retires its outstanding
// leases, so workers move on at their next contact.
func (s *Service) Cancel(tenant, id string) (api.CampaignStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.lookupLocked(tenant, id)
	if err != nil {
		return api.CampaignStatus{}, err
	}
	switch {
	case api.TerminalState(c.entry.State):
		// Nothing to do.
	case c.entry.State == api.StateQueued:
		c.entry.State = api.StateCancelled
		c.entry.Error = "cancelled before start"
		c.entry.FinishedUnixNS = s.opt.now().UnixNano()
		s.put(c.entry)
		s.opt.Logf("svc: campaign %s cancelled while queued", id)
		s.changed.Raise()
		s.scheduleLocked()
	default:
		c.cancelReason = "cancelled by " + orAnon(tenant)
		if c.coord != nil {
			c.coord.Cancel(c.cancelReason)
		}
		// The campaign goroutine observes the coordinator failure and
		// finishes the lifecycle transition.
	}
	return s.statusLocked(c), nil
}

func orAnon(tenant string) string {
	if tenant == "" {
		return "request"
	}
	return tenant
}

// Results serves a finished campaign's indexed outcome breakdowns.
func (s *Service) Results(tenant, id string) (api.ResultsResponse, error) {
	s.mu.Lock()
	c, err := s.lookupLocked(tenant, id)
	if err != nil {
		s.mu.Unlock()
		return api.ResultsResponse{}, err
	}
	state := c.entry.State
	s.mu.Unlock()
	if !api.TerminalState(state) {
		return api.ResultsResponse{}, apiErr(http.StatusConflict, api.CodeConflict,
			"campaign %s is %s; results are indexed at completion", id, state)
	}
	if !s.opt.Index.Has(id) {
		return api.ResultsResponse{}, apiErr(http.StatusNotFound, api.CodeNotFound,
			"no results indexed for campaign %s (state %s)", id, state)
	}
	cells, err := s.opt.Index.Load(id)
	if err != nil {
		return api.ResultsResponse{}, apiErr(http.StatusInternalServerError, api.CodeInternal, "loading results: %v", err)
	}
	return api.ResultsResponse{SchemaVersion: api.SubmitSchemaVersion, ID: id, State: state, Cells: cells}, nil
}

func (s *Service) statusLocked(c *campaign) api.CampaignStatus {
	e := c.entry
	cfg := e.Config
	masks := 0
	for i := range cfg.Campaigns {
		masks += cfg.MaskCount(i)
	}
	st := api.CampaignStatus{
		SchemaVersion:    api.SubmitSchemaVersion,
		ID:               e.ID,
		Tenant:           e.Tenant,
		Name:             e.Name,
		Priority:         e.Priority,
		State:            e.State,
		Error:            e.Error,
		Resumed:          e.Resumed,
		Keys:             cfg.Keys(),
		Masks:            masks,
		SubmittedUnixNS:  e.SubmittedUnixNS,
		StartedUnixNS:    e.StartedUnixNS,
		FirstLeaseUnixNS: e.FirstLeaseUnixNS,
		FinishedUnixNS:   e.FinishedUnixNS,
		Options:          e.Options,
	}
	cs := c.shards
	if c.coord != nil {
		cs = c.coord.Stats()
	}
	st.Shards = cs.Shards
	st.ShardsCompleted = cs.Completed
	st.Requeues = cs.Requeues
	st.Duplicates = cs.Duplicates
	st.ShardsCancelled = cs.Cancelled
	return st
}

// put persists a spool entry's state change, logging (rather than
// failing the caller) when the disk write fails — in-memory state stays
// authoritative for this process either way.
func (s *Service) put(e *SpoolEntry) {
	if err := s.opt.Spool.PutState(e); err != nil {
		s.opt.Logf("svc: %v", err)
	}
}

// ---------------------------------------------------------------------
// Scheduler and campaign lifecycle.

// scheduleLocked starts queued campaigns while the global and
// per-tenant concurrency allow, highest priority first and submission
// order within a priority.
func (s *Service) scheduleLocked() {
	if s.closed {
		return
	}
	running := 0
	perTenant := make(map[string]int)
	var queued []*campaign
	for _, c := range s.runnableLocked() {
		if c.entry.State == api.StateQueued {
			queued = append(queued, c)
		} else {
			running++
			perTenant[c.entry.Tenant]++
		}
	}
	for _, c := range queued {
		if running >= s.opt.MaxActive {
			return
		}
		if t := s.byName[c.entry.Tenant]; t != nil && t.MaxActive > 0 && perTenant[t.Name] >= t.MaxActive {
			continue
		}
		c.entry.State = api.StatePlanning
		if c.entry.StartedUnixNS == 0 {
			c.entry.StartedUnixNS = s.opt.now().UnixNano()
		}
		s.put(c.entry)
		running++
		perTenant[c.entry.Tenant]++
		s.wg.Add(1)
		go s.run(c)
	}
}

// run drives one campaign's lifecycle: build the telemetry stack and
// coordinator (replaying the run journal when resuming), wait for the
// fleet to finish the shards, then merge artifacts and index results.
func (s *Service) run(c *campaign) {
	defer s.wg.Done()
	e := c.entry
	id, cfg, opts := e.ID, e.Config, e.Options

	tel := telemetry.New()
	events := telemetry.NewEventStream(tel)
	tel.AddSink(events)
	var traceSink *telemetry.TraceSink
	if opts.Trace {
		traceSink = telemetry.NewTraceSink()
		tel.AddSink(traceSink)
	}
	var tracer *telemetry.Tracer
	var spanBuf *telemetry.SpanBuffer
	if opts.Spans {
		tracer = telemetry.NewTracer("t-"+id, "c")
		spanBuf = telemetry.NewSpanBuffer()
		tracer.AddSink(spanBuf)
		tracer.AddSink(events)
	}
	logs := s.opt.Logs
	if !opts.Flat {
		var err error
		if logs, err = core.NewLogsRepo(filepath.Join(s.opt.Logs.Dir(), id)); err != nil {
			s.finish(c, err)
			return
		}
	}

	// The deterministic mask populations and stopping rules, built once
	// on demand — an adaptive coordinator drives the rules and settles
	// the tails they cancel, a resuming one checks journals against the
	// masks for staleness.
	var (
		specsOnce sync.Once
		specs     []core.CampaignSpec
		stops     []*core.StopRule
		specsErr  error
	)
	cell := func(i int) ([]fault.Mask, *core.StopRule, error) {
		specsOnce.Do(func() {
			if specs, specsErr = cfg.BuildSpecs(s.opt.Resolve, s.golden); specsErr == nil {
				stops, specsErr = cfg.StopRules(specs, s.golden)
			}
		})
		if specsErr != nil {
			return nil, nil, specsErr
		}
		return specs[i].Masks, stops[i], nil
	}

	copt := dist.CoordinatorOptions{
		ShardSize:    s.opt.ShardSize,
		LeaseTTL:     s.opt.LeaseTTL,
		MaxRetries:   s.opt.MaxRetries,
		RetryBackoff: s.opt.RetryBackoff,
		Telemetry:    tel,
		Tracer:       tracer,
		Cell:         cell,
		Logf: func(format string, args ...any) {
			s.opt.Logf("campaign "+id+": "+format, args...)
		},
	}
	if opts.Journal {
		copt.JournalFor = func(key string) (*fault.Journal, error) {
			return fault.OpenJournal(logs.JournalPath(key))
		}
		copt.Resume = e.Resumed
	}
	coord, err := dist.New(cfg, copt)
	if err != nil {
		s.finish(c, err)
		return
	}

	s.mu.Lock()
	c.coord, c.tel, c.events = coord, tel, events
	e.State = api.StateRunning
	s.put(e)
	if c.cancelReason != "" {
		coord.Cancel(c.cancelReason)
	}
	s.mu.Unlock()
	st := coord.Stats()
	s.opt.Logf("svc: campaign %s running (%d shards, %d already merged from journal)", id, st.Shards, coord.ResumedRuns())

	s.changed.Raise()
	stopForward := make(chan struct{})
	go s.forwardChanges(coord, stopForward)
	results, err := coord.Wait(s.ctx)
	close(stopForward)
	if s.stopping() {
		// Graceful shutdown mid-run: close the journals and leave the
		// spool entry live, so the next daemon resumes the campaign.
		coord.Close()
		return
	}
	if err != nil {
		coord.Close()
		s.finish(c, err)
		return
	}

	s.mu.Lock()
	e.State = api.StateFinalizing
	s.put(e)
	s.mu.Unlock()

	ferr := s.finalize(id, cfg, opts, logs, results, traceSink, spanBuf)
	coord.Close()
	s.finish(c, ferr)
}

// forwardChanges raises the service's change signal at every change of
// a running campaign's ledger until stop closes. It takes the ledger's
// next channel before it raises, so a ledger change that lands while it
// raises is forwarded too.
func (s *Service) forwardChanges(coord *dist.Coordinator, stop <-chan struct{}) {
	ch := coord.Changed()
	for {
		select {
		case <-ch:
		case <-stop:
			return
		}
		ch = coord.Changed()
		s.changed.Raise()
	}
}

// Changed returns a channel closed at the service's next worker-plane
// change, nil once the service is closed (see WorkerPlane).
func (s *Service) Changed() <-chan struct{} { return s.changed.C() }

// finalize stores a completed campaign's artifacts in the logs
// repository (core.LogsRepo.StoreCampaign: the per-cell logs and the
// trace, divergence and span files, written concurrently) and then
// feeds the result index, so an indexed campaign always has its
// artifacts.
func (s *Service) finalize(id string, cfg core.CampaignConfig, opts api.SubmitOptions, logs *core.LogsRepo,
	results []*core.CampaignResult, traceSink *telemetry.TraceSink, spanBuf *telemetry.SpanBuffer) error {
	keys := cfg.Keys()
	akey := opts.ArtifactKey
	if akey == "" {
		akey = "matrix"
		if len(keys) == 1 {
			akey = keys[0]
		}
	}
	if err := logs.StoreCampaign(akey, keys, results, traceSink, spanBuf); err != nil {
		return err
	}
	return s.opt.Index.Store(id, outcomeCells(cfg, keys, results))
}

// finish moves a campaign to its terminal state and persists it. On a
// graceful shutdown the transition is skipped: the spool keeps the
// live state for the next daemon to resume.
func (s *Service) finish(c *campaign, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping() {
		return
	}
	e := c.entry
	switch {
	case err == nil:
		e.State = api.StateDone
		e.Error = ""
	case errors.Is(err, dist.ErrCancelled):
		e.State = api.StateCancelled
		e.Error = err.Error()
	default:
		e.State = api.StateFailed
		e.Error = err.Error()
	}
	e.FinishedUnixNS = s.opt.now().UnixNano()
	if c.coord != nil {
		// From here on the worker plane answers for this campaign as it
		// does for a terminal one restored from the spool, so no run event
		// can reach the collector any more: its sinks (the trace buffer
		// among them, written out by finalize) go too.
		c.shards, c.coord = c.coord.Stats(), nil
		c.tel.DetachSinks()
	}
	s.put(e)
	s.opt.Logf("svc: campaign %s %s", e.ID, e.State)
	s.changed.Raise()
	s.scheduleLocked()
}

// outcomeCells computes the indexed per-cell outcome breakdowns served
// by GET /v1/campaigns/{id}/results.
func outcomeCells(cfg core.CampaignConfig, keys []string, results []*core.CampaignResult) []fault.OutcomeIndex {
	cells := make([]fault.OutcomeIndex, len(results))
	for i, res := range results {
		cell := cfg.Campaigns[i]
		b := core.Parser{}.ParseAll(res.Records)
		statuses := make(map[string]int)
		for _, r := range res.Records {
			statuses[r.Status]++
		}
		classes := make(map[string]int)
		shares := make(map[string]float64)
		wshares := make(map[string]float64)
		for cls, n := range b.Counts {
			classes[string(cls)] = n
			if cls == core.ClassStopped {
				continue
			}
			shares[string(cls)] = b.Pct(cls) / 100
			wshares[string(cls)] = b.WeightedPct(cls) / 100
		}
		oi := fault.OutcomeIndex{
			SchemaVersion:  fault.OutcomeIndexSchemaVersion,
			Key:            keys[i],
			Tool:           cell.Tool,
			Benchmark:      cell.Benchmark,
			Structure:      cell.Structure,
			Runs:           b.Total,
			WeightSum:      b.WeightSum,
			Statuses:       statuses,
			Classes:        classes,
			Shares:         shares,
			WeightedShares: wshares,
			Vulnerability:  b.WeightedVulnerability() / 100,
		}
		if res.Adaptive != nil {
			oi.Adaptive = &fault.AdaptiveIndexSummary{
				StoppedEarly:    res.Adaptive.StoppedEarly,
				SimulatedRuns:   res.Adaptive.SimulatedRuns,
				PlannedRuns:     res.Adaptive.PlannedRuns,
				EffectiveMargin: res.Adaptive.EffectiveMargin,
				Confidence:      res.Adaptive.Confidence,
			}
		}
		if recs := res.Divergence; len(recs) > 0 {
			sum := &fault.DivergenceIndexSummary{Records: len(recs)}
			var propSum, timeSum float64
			var propN, timeN int
			for _, r := range recs {
				if r.Diverged {
					sum.Diverged++
				}
				if r.Observed && r.Diverged {
					propSum += float64(r.PropagationCycles)
					propN++
				}
				if r.Observed {
					timeSum += float64(r.TimeToOutcome)
					timeN++
				}
			}
			if propN > 0 {
				sum.MeanPropagationCycles = propSum / float64(propN)
			}
			if timeN > 0 {
				sum.MeanTimeToOutcome = timeSum / float64(timeN)
			}
			oi.Divergence = sum
		}
		cells[i] = oi
	}
	return cells
}

// ---------------------------------------------------------------------
// Worker plane: one fleet, many campaigns.

func (s *Service) workerLocked(id string) *workerView {
	w := s.workers[id]
	if w == nil {
		w = &workerView{shard: -1, done: make(map[string]int)}
		s.workers[id] = w
	}
	w.lastSeen = s.opt.now()
	return w
}

// runnableLocked returns the non-terminal campaigns in scheduling
// order (priority, then submission).
func (s *Service) runnableLocked() []*campaign {
	var cs []*campaign
	for _, c := range s.camps {
		if !api.TerminalState(c.entry.State) {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].entry.Priority != cs[j].entry.Priority {
			return cs[i].entry.Priority > cs[j].entry.Priority
		}
		return cs[i].entry.Seq < cs[j].entry.Seq
	})
	return cs
}

// Lease assigns the worker a shard from the highest-priority campaign
// that has one, stamping the campaign ID into the response. With no
// work anywhere: wait — or done, once every campaign is terminal and
// the service was built to exit when idle.
func (s *Service) Lease(workerID string) api.LeaseResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.workerLocked(workerID)
	w.campaign, w.shard = "", -1 // a polling worker is idle until a grant below
	live := s.runnableLocked()
	var wait int64 = 500
	for _, c := range live {
		if c.coord == nil {
			continue // still planning; work is coming
		}
		resp := c.coord.Lease(workerID)
		switch resp.Status {
		case api.StatusShard:
			resp.CampaignID = c.entry.ID
			if c.entry.FirstLeaseUnixNS == 0 {
				// Time in queue ends here; it is spooled with the
				// campaign's next state change, not on the lease path.
				c.entry.FirstLeaseUnixNS = s.opt.now().UnixNano()
			}
			w.campaign, w.shard = c.entry.ID, resp.Shard.ID
			if _, served := w.done[c.entry.ID]; !served {
				w.done[c.entry.ID] = 0 // listed in the campaign's fleet view from its first lease
			}
			return resp
		case api.StatusWait:
			if resp.WaitMS > 0 && resp.WaitMS < wait {
				wait = resp.WaitMS
			}
		}
		// done/failed: the campaign goroutine is mid-transition;
		// skip it and look at the next campaign.
	}
	if len(live) == 0 && s.opt.ExitWhenIdle && len(s.camps) > 0 {
		return api.LeaseResponse{Status: api.StatusDone}
	}
	return api.LeaseResponse{Status: api.StatusWait, WaitMS: wait}
}

// ledgerFor stamps a worker's contact and returns the shard ledger of
// the campaign its request names, nil when there is none.
func (s *Service) ledgerFor(workerID, campaignID string) *dist.Coordinator {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workerLocked(workerID)
	return s.ledgerLocked(campaignID)
}

// ledgerLocked returns the campaign's shard ledger, nil unless it is
// running in this process: a queued or planning campaign has none yet, a
// terminal one no longer.
func (s *Service) ledgerLocked(campaignID string) *dist.Coordinator {
	if c := s.camps[campaignID]; c != nil {
		return c.coord
	}
	return nil
}

// Heartbeat routes a lease extension to its campaign's ledger.
func (s *Service) Heartbeat(req api.HeartbeatRequest) api.HeartbeatResponse {
	coord := s.ledgerFor(req.WorkerID, req.CampaignID)
	if coord == nil {
		return api.HeartbeatResponse{OK: false}
	}
	resp := coord.Heartbeat(req)
	if resp.OK {
		s.mu.Lock()
		w := s.workerLocked(req.WorkerID)
		w.campaign, w.shard = req.CampaignID, req.ShardID
		s.mu.Unlock()
	}
	return resp
}

// Complete routes a shard completion to its campaign's ledger and
// records the delivery — and the piggybacked worker snapshot — in the
// fleet table.
func (s *Service) Complete(req api.CompleteRequest) api.CompleteResponse {
	coord := s.ledgerFor(req.WorkerID, req.CampaignID)
	resp := api.CompleteResponse{OK: false, Error: fmt.Sprintf("unknown campaign %q", req.CampaignID)}
	if coord != nil {
		resp = coord.Complete(req)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.workerLocked(req.WorkerID)
	w.campaign, w.shard = "", -1
	if resp.Accepted {
		w.done[req.CampaignID]++
	}
	if req.Snapshot != nil && !w.final {
		// Piggybacked telemetry: the freshest view of this worker, unless
		// it already posted its final word via /v1/snapshot.
		w.snap = req.Snapshot
	}
	return resp
}

// PushSnapshot records a worker's out-of-cycle telemetry snapshot in
// the fleet table. A Final push (a draining worker's last word) freezes
// the view: later piggybacked snapshots from in-flight completions
// cannot roll it back.
func (s *Service) PushSnapshot(req api.SnapshotRequest) api.SnapshotResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.workerLocked(req.WorkerID)
	if !w.final {
		w.snap = &req.Snapshot
		if req.Final {
			w.final = true
			w.campaign, w.shard = "", -1
		}
	}
	return api.SnapshotResponse{OK: true}
}

// CampaignConfig serves a running campaign's config and lease terms to
// a worker, stamped with the campaign ID.
func (s *Service) CampaignConfig(id string) (api.ConfigResponse, error) {
	s.mu.Lock()
	coord := s.ledgerLocked(id)
	s.mu.Unlock()
	if coord == nil {
		return api.ConfigResponse{}, apiErr(http.StatusNotFound, api.CodeNotFound, "no running campaign %q", id)
	}
	resp := coord.Config()
	resp.CampaignID = id
	return resp, nil
}

// FleetSnapshot merges every worker's last pushed snapshot into the
// service-wide view, overlaying the coordinator-side early-stop
// counters of adaptive campaigns (workers never see a stopped run, so
// the overlay cannot double-count).
func (s *Service) FleetSnapshot() telemetry.Snapshot {
	s.mu.Lock()
	ids := make([]string, 0, len(s.workers))
	for id, w := range s.workers {
		if w.snap != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	snaps := make([]telemetry.Snapshot, 0, len(ids))
	for _, id := range ids {
		snaps = append(snaps, *s.workers[id].snap)
	}
	var own []telemetry.Snapshot
	for _, c := range s.camps {
		if c.tel != nil && c.entry.Config.StopMargin > 0 {
			own = append(own, c.tel.Snapshot())
		}
	}
	s.mu.Unlock()
	merged := telemetry.MergeSnapshots(snaps...)
	for _, o := range own {
		merged.StoppedRuns += o.StoppedRuns
		merged.CellsStoppedEarly += o.CellsStoppedEarly
		if o.EffectiveMargin > merged.EffectiveMargin {
			merged.EffectiveMargin = o.EffectiveMargin
		}
	}
	return merged
}

// Fleet returns the fleet table sorted by worker ID: every worker the
// service has heard from, or — given a campaign ID — the workers that
// leased from that campaign, with their accepted shards and held lease
// counted on it alone.
func (s *Service) Fleet(campaign string) []api.WorkerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opt.now()
	out := make([]api.WorkerStatus, 0, len(s.workers))
	for id, w := range s.workers {
		ws := api.WorkerStatus{ID: id, Shard: w.shard, Final: w.final}
		if campaign == "" {
			for _, n := range w.done {
				ws.ShardsDone += n
			}
		} else {
			n, served := w.done[campaign]
			if !served {
				continue
			}
			ws.ShardsDone = n
			if w.campaign != campaign {
				ws.Shard = -1
			}
		}
		if lag := now.Sub(w.lastSeen).Seconds(); lag > 0 {
			ws.LagSeconds = lag
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WaitFleetFinal blocks until every worker that ever pushed a snapshot
// has pushed its final one, or the timeout passes (a crashed worker
// never posts one). A campaign completes when its last shard merges,
// which can be moments before the delivering worker's final snapshot
// arrives — callers that freeze the fleet snapshot to disk wait here
// first.
func (s *Service) WaitFleetFinal(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		settled := len(s.workers) > 0
		for _, w := range s.workers {
			if w.snap != nil && !w.final {
				settled = false
			}
		}
		s.mu.Unlock()
		if settled {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Idle reports whether every submitted campaign reached a terminal
// state (false while the spool is empty — nothing was submitted yet).
func (s *Service) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.camps) == 0 {
		return false
	}
	for _, c := range s.camps {
		if !api.TerminalState(c.entry.State) {
			return false
		}
	}
	return true
}
