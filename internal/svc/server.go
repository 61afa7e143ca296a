package svc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/svc/api"
	"repro/internal/telemetry"
)

// tenantFor authenticates a campaign-API request. In open mode (no
// tenants configured) every request acts as the anonymous tenant.
func (s *Service) tenantFor(r *http.Request) (string, *api.Error) {
	if len(s.byToken) == 0 {
		return "", nil
	}
	const prefix = "Bearer "
	h := r.Header.Get("Authorization")
	if !strings.HasPrefix(h, prefix) {
		return "", apiErr(http.StatusUnauthorized, api.CodeUnauthorized, "missing bearer token")
	}
	t := s.byToken[strings.TrimSpace(strings.TrimPrefix(h, prefix))]
	if t == nil {
		return "", apiErr(http.StatusUnauthorized, api.CodeUnauthorized, "unknown token")
	}
	return t.Name, nil
}

func writeAPIError(w http.ResponseWriter, err error) {
	var ae *api.Error
	if errors.As(err, &ae) {
		api.WriteError(w, ae.StatusCode, ae.Code, "%s", ae.Message)
		return
	}
	api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
}

// authed wraps a campaign-API handler with bearer authentication.
func (s *Service) authed(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant, aerr := s.tenantFor(r)
		if aerr != nil {
			writeAPIError(w, aerr)
			return
		}
		h(w, r, tenant)
	}
}

// observedCampaign returns the campaign when this process has run it —
// its collector and event stream exist, and outlive the run — else nil:
// a queued campaign, or a terminal one restored from the spool, has none.
func (s *Service) observedCampaign(id string) *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.camps[id]; c != nil && c.tel != nil {
		return c
	}
	return nil
}

// observed wraps a GET handler of a campaign's observability plane with
// the lookup.
func (s *Service) observed(h func(http.ResponseWriter, *http.Request, *campaign)) http.HandlerFunc {
	return methodOnly(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		c := s.observedCampaign(r.PathValue("id"))
		if c == nil {
			api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no live view of campaign %q", r.PathValue("id"))
			return
		}
		h(w, r, c)
	})
}

// WorkerPlane is what the worker protocol's five routes serve. The
// Service is the one implementation in the product; the interface
// exists so internal/dist's tests can put a bare shard ledger behind
// the same route registration. Changed returns a channel closed at the
// plane's next change — anything that can turn a wait into a shard or
// into done — or nil when the plane cannot promise one (closed): a held
// lease request then answers at once.
type WorkerPlane interface {
	Lease(workerID string) api.LeaseResponse
	Changed() <-chan struct{}
	Heartbeat(api.HeartbeatRequest) api.HeartbeatResponse
	Complete(api.CompleteRequest) api.CompleteResponse
	PushSnapshot(api.SnapshotRequest) api.SnapshotResponse
	CampaignConfig(id string) (api.ConfigResponse, error)
}

// MountWorkerPlane registers the worker protocol — lease, heartbeat,
// complete, snapshot and the per-campaign config — on mux: the one
// place those five bodies are decoded.
func MountWorkerPlane(mux *http.ServeMux, p WorkerPlane) {
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req api.LeaseRequest
		if !api.ReadJSON(w, r, &req) {
			return
		}
		if req.WorkerID == "" {
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "worker_id is required")
			return
		}
		resp, ok := holdLease(r.Context(), p, req)
		if ok {
			api.WriteJSON(w, resp)
		}
	})
	mux.HandleFunc("/v1/heartbeat", post(p.Heartbeat))
	mux.HandleFunc("/v1/complete", post(p.Complete))
	mux.HandleFunc("/v1/snapshot", post(p.PushSnapshot))
	mux.HandleFunc("/v1/campaigns/{id}/config", methodOnly(http.MethodGet,
		func(w http.ResponseWriter, r *http.Request) {
			resp, err := p.CampaignConfig(r.PathValue("id"))
			if err != nil {
				writeAPIError(w, err)
				return
			}
			api.WriteJSON(w, resp)
		}))
}

// holdLease answers a lease request. One that asks for a hold and finds
// nothing runnable waits — at most its hold, and never past the wait
// hint it would have answered — for the plane to change, leasing again
// at each change; a wait it answers after holding is flagged Held. The
// change channel is taken before each lease, so a change that lands
// between the two still wakes it. ok is false when the request ended
// while held (the client is gone; there is nobody to answer).
func holdLease(ctx context.Context, p WorkerPlane, req api.LeaseRequest) (resp api.LeaseResponse, ok bool) {
	changed := p.Changed()
	resp = p.Lease(req.WorkerID)
	if req.HoldMS <= 0 || changed == nil || resp.Status != api.StatusWait {
		return resp, true
	}
	hold := time.NewTimer(time.Duration(min(req.HoldMS, max(resp.WaitMS, 1))) * time.Millisecond)
	defer hold.Stop()
	for {
		expired := false
		select {
		case <-changed:
		case <-hold.C:
			expired = true
		case <-ctx.Done():
			return resp, false
		}
		changed = p.Changed()
		resp = p.Lease(req.WorkerID)
		if resp.Status != api.StatusWait {
			return resp, true
		}
		if expired || changed == nil {
			resp.Held = true
			return resp, true
		}
	}
}

// post serves a POST route whose whole job is body in, body out.
func post[Req, Resp any](serve func(Req) Resp) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if api.ReadJSON(w, r, &req) {
			api.WriteJSON(w, serve(req))
		}
	}
}

// methodOnly wraps a handler with a method check that answers the
// shared error envelope on mismatch.
func methodOnly(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "%s only", method)
			return
		}
		h(w, r)
	}
}

func writeSnapshot(w http.ResponseWriter, snap telemetry.Snapshot) {
	b, err := snap.JSON()
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

func writeMetrics(w http.ResponseWriter, snap telemetry.Snapshot) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.WritePrometheus(w)
}

// Handler returns the service's full /v1 HTTP surface: the tenant
// campaign API, the campaign-scoped worker and observability plane,
// the fleet worker protocol, and the service-wide telemetry endpoints.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	// Campaign queue API (bearer-authenticated when tenants are set).
	mux.HandleFunc("/v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		tenant, aerr := s.tenantFor(r)
		if aerr != nil {
			writeAPIError(w, aerr)
			return
		}
		switch r.Method {
		case http.MethodGet:
			api.WriteJSON(w, s.List(tenant))
		case http.MethodPost:
			var req api.SubmitRequest
			if !api.ReadJSON(w, r, &req) {
				return
			}
			st, err := s.Submit(tenant, req)
			if err != nil {
				writeAPIError(w, err)
				return
			}
			api.WriteJSON(w, st)
		default:
			api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET or POST only")
		}
	})
	mux.HandleFunc("/v1/campaigns/{id}", methodOnly(http.MethodGet,
		s.authed(func(w http.ResponseWriter, r *http.Request, tenant string) {
			st, err := s.Get(tenant, r.PathValue("id"))
			if err != nil {
				writeAPIError(w, err)
				return
			}
			api.WriteJSON(w, st)
		})))
	mux.HandleFunc("/v1/campaigns/{id}/cancel", methodOnly(http.MethodPost,
		s.authed(func(w http.ResponseWriter, r *http.Request, tenant string) {
			st, err := s.Cancel(tenant, r.PathValue("id"))
			if err != nil {
				writeAPIError(w, err)
				return
			}
			api.WriteJSON(w, st)
		})))
	mux.HandleFunc("/v1/campaigns/{id}/results", methodOnly(http.MethodGet,
		s.authed(func(w http.ResponseWriter, r *http.Request, tenant string) {
			res, err := s.Results(tenant, r.PathValue("id"))
			if err != nil {
				writeAPIError(w, err)
				return
			}
			api.WriteJSON(w, res)
		})))

	// Worker protocol and campaign-scoped observability plane (open:
	// workers and dashboards are deployment infrastructure, not tenants).
	MountWorkerPlane(mux, s)
	mux.HandleFunc("/v1/campaigns/{id}/snapshot.json", s.observed(func(w http.ResponseWriter, r *http.Request, c *campaign) {
		writeSnapshot(w, c.tel.Snapshot())
	}))
	mux.HandleFunc("/v1/campaigns/{id}/metrics", s.observed(func(w http.ResponseWriter, r *http.Request, c *campaign) {
		writeMetrics(w, c.tel.Snapshot())
	}))
	mux.HandleFunc("/v1/campaigns/{id}/fleet.json", s.observed(func(w http.ResponseWriter, r *http.Request, c *campaign) {
		api.WriteJSON(w, s.Fleet(c.entry.ID))
	}))
	mux.HandleFunc("/v1/campaigns/{id}/events", s.observed(func(w http.ResponseWriter, r *http.Request, c *campaign) {
		c.events.ServeHTTP(w, r)
	}))

	// Service-wide observability plane.
	mux.HandleFunc("/v1/snapshot.json", methodOnly(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		writeSnapshot(w, s.FleetSnapshot())
	}))
	mux.HandleFunc("/v1/metrics", methodOnly(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		writeMetrics(w, s.FleetSnapshot())
	}))
	mux.HandleFunc("/v1/fleet.json", methodOnly(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, s.Fleet(""))
	}))
	mux.HandleFunc("/v1/events", methodOnly(http.MethodGet, s.serveEvents))

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no such endpoint: %s", r.URL.Path)
			return
		}
		fmt.Fprintln(w, "faultcampd service: /v1/campaigns  /v1/campaigns/{id}{,/cancel,/results,/config,/events,/snapshot.json,/metrics,/fleet.json}  /v1/{lease,heartbeat,complete,snapshot}  /v1/{snapshot.json,metrics,fleet.json,events}")
	})
	return mux
}

// serveEvents is the service-root SSE feed: it follows the liveliest
// campaign (the newest non-terminal one, or the newest overall) — with
// one campaign, the one-shot daemon's case, simply that campaign's feed.
func (s *Service) serveEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	var best *campaign
	for _, c := range s.camps {
		if c.events == nil {
			continue
		}
		if best == nil {
			best = c
			continue
		}
		bestLive := !api.TerminalState(best.entry.State)
		live := !api.TerminalState(c.entry.State)
		if live != bestLive {
			if live {
				best = c
			}
			continue
		}
		if c.entry.Seq > best.entry.Seq {
			best = c
		}
	}
	s.mu.Unlock()
	if best == nil {
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no campaign event stream yet")
		return
	}
	best.events.ServeHTTP(w, r)
}
