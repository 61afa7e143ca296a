// Package client is the Go client of the campaign service's /v1 HTTP
// API — the one request path shared by the fleet worker, the faultctl
// CLI and the one-shot compatibility mode of faultcampd. It owns the
// concerns every ad-hoc http.Post call used to reimplement: typed
// envelope errors, context cancellation, and retry-with-backoff on
// connection errors and 5xx responses (a daemon restarting mid-campaign
// looks like a brief connection refusal; the retry budget is sized to
// ride it out).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/svc/api"
	"repro/internal/telemetry"
)

// Client talks to one campaign-service base URL.
type Client struct {
	base       string
	hc         *http.Client
	token      string
	attempts   int
	backoff    time.Duration
	maxBackoff time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithToken sends the tenant API token as a Bearer credential.
func WithToken(token string) Option { return func(c *Client) { c.token = token } }

// WithRetry overrides the retry budget: attempts total tries with
// exponential backoff starting at base (capped at 2s between tries).
func WithRetry(attempts int, base time.Duration) Option {
	return func(c *Client) {
		if attempts > 0 {
			c.attempts = attempts
		}
		if base > 0 {
			c.backoff = base
		}
	}
}

// New builds a client for the service at base (e.g. "http://host:port").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimSuffix(base, "/"),
		hc:         &http.Client{Timeout: 60 * time.Second},
		attempts:   8,
		backoff:    100 * time.Millisecond,
		maxBackoff: 2 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the service base URL.
func (c *Client) Base() string { return c.base }

// call runs one JSON round trip with the retry policy and decodes the
// answer into a T: connection errors and 5xx envelopes retry with
// exponential backoff; 4xx envelopes and context cancellation return
// immediately.
func call[T any](ctx context.Context, c *Client, method, path string, in any) (out T, err error) {
	var body []byte
	if in != nil {
		if body, err = json.Marshal(in); err != nil {
			return out, fmt.Errorf("client: encoding %s %s: %w", method, path, err)
		}
	}
	var lastErr error
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return out, ctx.Err()
			case <-time.After(min(c.backoff<<(attempt-1), c.maxBackoff)):
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return out, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.token != "" {
			req.Header.Set("Authorization", "Bearer "+c.token)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return out, ctx.Err()
			}
			lastErr = err // connection refused, reset, timeout: retryable
			continue
		}
		if resp.StatusCode != http.StatusOK {
			apiErr := api.DecodeError(resp.StatusCode, resp.Body)
			resp.Body.Close()
			if apiErr.IsRetryable() {
				lastErr = apiErr
				continue
			}
			return out, apiErr
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			return out, fmt.Errorf("client: decoding %s %s: %w", method, path, err)
		}
		return out, nil
	}
	return out, fmt.Errorf("client: %s %s%s: %w", method, c.base, path, lastErr)
}

// Retryable reports whether an error from this client is transient —
// a connection failure or a 5xx envelope that outlived the retry
// budget — rather than a definitive 4xx answer.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		return apiErr.IsRetryable()
	}
	// Network-level failure (no envelope ever arrived).
	return true
}

// ----- worker protocol -----

// CampaignConfig fetches one campaign's config by ID.
func (c *Client) CampaignConfig(ctx context.Context, id string) (api.ConfigResponse, error) {
	return call[api.ConfigResponse](ctx, c, http.MethodGet, "/v1/campaigns/"+id+"/config", nil)
}

// Lease polls for a shard assignment; the service answers at once.
func (c *Client) Lease(ctx context.Context, workerID string) (api.LeaseResponse, error) {
	return c.LeaseHeld(ctx, workerID, 0)
}

// LeaseHeld asks for a shard assignment that the service may hold open
// for up to hold while it has nothing runnable (api.LeaseRequest's
// HoldMS; under a millisecond asks for no hold). A held wait comes back
// flagged Held.
func (c *Client) LeaseHeld(ctx context.Context, workerID string, hold time.Duration) (api.LeaseResponse, error) {
	return call[api.LeaseResponse](ctx, c, http.MethodPost, "/v1/lease", api.LeaseRequest{WorkerID: workerID, HoldMS: hold.Milliseconds()})
}

// Heartbeat extends a shard lease.
func (c *Client) Heartbeat(ctx context.Context, req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	return call[api.HeartbeatResponse](ctx, c, http.MethodPost, "/v1/heartbeat", req)
}

// Complete delivers a shard result.
func (c *Client) Complete(ctx context.Context, req api.CompleteRequest) (api.CompleteResponse, error) {
	return call[api.CompleteResponse](ctx, c, http.MethodPost, "/v1/complete", req)
}

// PushSnapshot pushes a worker telemetry snapshot to the fleet plane.
func (c *Client) PushSnapshot(ctx context.Context, req api.SnapshotRequest) (api.SnapshotResponse, error) {
	return call[api.SnapshotResponse](ctx, c, http.MethodPost, "/v1/snapshot", req)
}

// ----- campaign service -----

// Submit enqueues a campaign and returns its initial status.
func (c *Client) Submit(ctx context.Context, req api.SubmitRequest) (api.CampaignStatus, error) {
	if req.SchemaVersion == 0 {
		req.SchemaVersion = api.SubmitSchemaVersion
	}
	return call[api.CampaignStatus](ctx, c, http.MethodPost, "/v1/campaigns", req)
}

// Get fetches one campaign's status.
func (c *Client) Get(ctx context.Context, id string) (api.CampaignStatus, error) {
	return call[api.CampaignStatus](ctx, c, http.MethodGet, "/v1/campaigns/"+id, nil)
}

// List fetches every campaign visible to the caller's tenant.
func (c *Client) List(ctx context.Context) (api.CampaignList, error) {
	return call[api.CampaignList](ctx, c, http.MethodGet, "/v1/campaigns", nil)
}

// Cancel requests cancellation and returns the resulting status.
func (c *Client) Cancel(ctx context.Context, id string) (api.CampaignStatus, error) {
	return call[api.CampaignStatus](ctx, c, http.MethodPost, "/v1/campaigns/"+id+"/cancel", nil)
}

// Results fetches the indexed per-cell outcome breakdowns.
func (c *Client) Results(ctx context.Context, id string) (api.ResultsResponse, error) {
	return call[api.ResultsResponse](ctx, c, http.MethodGet, "/v1/campaigns/"+id+"/results", nil)
}

// Snapshot fetches one campaign's merged telemetry snapshot — the
// single-node-equivalent collector view.
func (c *Client) Snapshot(ctx context.Context, id string) (telemetry.Snapshot, error) {
	return call[telemetry.Snapshot](ctx, c, http.MethodGet, "/v1/campaigns/"+id+"/snapshot.json", nil)
}

// FleetSnapshot fetches the service-wide fleet aggregation (the
// /v1/snapshot.json view).
func (c *Client) FleetSnapshot(ctx context.Context) (telemetry.Snapshot, error) {
	return call[telemetry.Snapshot](ctx, c, http.MethodGet, "/v1/snapshot.json", nil)
}

// Fleet fetches the service-wide per-worker accounting.
func (c *Client) Fleet(ctx context.Context) ([]api.WorkerStatus, error) {
	return call[[]api.WorkerStatus](ctx, c, http.MethodGet, "/v1/fleet.json", nil)
}

// firstPoll is the delay before Wait's second status poll; each later
// delay doubles up to Wait's poll cap.
const firstPoll = 5 * time.Millisecond

// Wait polls a campaign until it reaches a terminal state. The first
// poll is immediate and the delays between polls double from a few
// milliseconds up to poll (500 ms when poll is not positive), so a
// short campaign is seen done about when it ends, not up to a period
// later, and a long one is polled at most once per poll. Transient
// errors (the daemon restarting) keep polling; definitive 4xx answers
// abort.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (api.CampaignStatus, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	delay := min(firstPoll, poll)
	for {
		st, err := c.Get(ctx, id)
		if err != nil {
			if !Retryable(err) {
				return st, err
			}
		} else if api.TerminalState(st.State) {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return api.CampaignStatus{}, ctx.Err()
		case <-time.After(delay):
		}
		delay = min(2*delay, poll)
	}
}
