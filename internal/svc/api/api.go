// Package api is the versioned wire surface of the campaign service:
// every request and response body exchanged over the /v1 HTTP API, the
// shared JSON error envelope, and the worker protocol types the
// distributed layer speaks. The types live in one place so the daemon,
// the Go client and the worker cannot drift.
//
// Error contract: every non-200 response carries the envelope
//
//	{"error": {"code": "...", "message": "..."}}
//
// with a stable machine-readable code and a human-readable message.
// 200 responses carry the endpoint's documented body and nothing else.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/telemetry"
)

// ProtocolVersion is the service/worker wire format version. A worker
// refuses a service speaking a newer version (and the served config
// carries its own schema version), so a mixed-build fleet fails loudly
// instead of merging subtly different outputs.
const ProtocolVersion = 1

// SubmitSchemaVersion is the campaign-service request/response format
// version this build writes; requests stamped newer are rejected.
const SubmitSchemaVersion = 1

// Error codes of the shared envelope.
const (
	CodeBadRequest       = "bad_request"
	CodeUnauthorized     = "unauthorized"
	CodeForbidden        = "forbidden"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeConflict         = "conflict"
	CodeQuotaExceeded    = "quota_exceeded"
	CodeUnavailable      = "unavailable"
	CodeInternal         = "internal"
)

// ErrorDetail is the inner object of the error envelope.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the body of every non-200 response.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// Error is the typed client-side form of an envelope: the HTTP status
// plus the decoded code and message. The svc/client package returns it
// for every non-200 response, so callers switch on Code (or status
// class) instead of parsing message strings.
type Error struct {
	StatusCode int
	Code       string
	Message    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("api: HTTP %d %s: %s", e.StatusCode, e.Code, e.Message)
}

// IsRetryable reports whether the error is transient service-side state
// (5xx) rather than a caller mistake — the client's retry predicate.
func (e *Error) IsRetryable() bool { return e.StatusCode >= 500 }

// WriteError writes the shared error envelope with the given status.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorDetail{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// WriteJSON writes a 200 JSON body.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, "encoding response: %v", err)
	}
}

// MaxBodyBytes bounds every request body the service reads, sized for
// the largest legitimate one with room to spare. Measured on mafin-x86 ×
// qsort: a CompleteRequest costs 1.3 KB per mask with everything on
// (detail window, divergence provenance, spans; 0.5 KB without spans) —
// 66 KB for the default 50-mask shard, 2.6 MB for a 2000-mask cell
// leased as one shard. A SubmitRequest with explicit masks costs
// 106–136 B per mask (transient–intermittent): 0.27 MB for one
// Leveugle-scale cell of 2000, 41 MB for the paper's whole matrix of
// 300,000 spelled out in one submission.
const MaxBodyBytes = 64 << 20

// ReadJSON decodes a POST body of at most MaxBodyBytes into v, answering
// the shared envelope itself (405 on a non-POST method, 413 on a body
// over the bound, 400 on an undecodable body or on anything but
// whitespace after the one JSON value) and reporting whether the caller
// should proceed.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "POST only")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	var tooLarge *http.MaxBytesError
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if !errors.As(err, &tooLarge) {
			err = errors.New("data after the JSON value")
		}
	}
	if errors.As(err, &tooLarge) {
		WriteError(w, http.StatusRequestEntityTooLarge, CodeBadRequest, "request body exceeds %d bytes", tooLarge.Limit)
	} else {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
	}
	return false
}

// DecodeError turns a non-200 response into a typed *Error, decoding
// the envelope when present and falling back to the raw body text for
// peers that predate it.
func DecodeError(status int, body io.Reader) *Error {
	raw, _ := io.ReadAll(io.LimitReader(body, 4096))
	var env ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Code != "" {
		return &Error{StatusCode: status, Code: env.Error.Code, Message: env.Error.Message}
	}
	code := CodeInternal
	if status < 500 {
		code = CodeBadRequest
	}
	return &Error{StatusCode: status, Code: code, Message: strings.TrimSpace(string(raw))}
}

// ---------------------------------------------------------------------
// Worker protocol (leases, completions, fleet telemetry).

// Shard is one unit of distributed work: the mask window [MaskLo,
// MaskHi) of one campaign cell of the config. TraceID/SpanID, when set,
// carry the campaign's span context: the worker parents the shard's
// matrix span under SpanID so the service assembles one end-to-end span
// tree. Both are additive — a version-1 peer ignores them.
type Shard struct {
	ID       int    `json:"id"`
	Campaign int    `json:"campaign"`
	MaskLo   int    `json:"mask_lo"`
	MaskHi   int    `json:"mask_hi"`
	TraceID  string `json:"trace_id,omitempty"`
	SpanID   string `json:"span_id,omitempty"`
}

// ConfigResponse is the body of GET /v1/campaigns/{id}/config: the full
// campaign config plus the lease terms the service enforces. CampaignID
// names the campaign the config belongs to.
type ConfigResponse struct {
	ProtocolVersion int                 `json:"protocol_version"`
	Config          core.CampaignConfig `json:"config"`
	LeaseTTLMS      int64               `json:"lease_ttl_ms"`
	CampaignID      string              `json:"campaign_id,omitempty"`
}

// LeaseRequest is the body of POST /v1/lease. HoldMS, when positive,
// asks the service to hold the request open while nothing is runnable:
// it answers as soon as its worker plane changes (a campaign starts, a
// shard completes or is requeued, a campaign ends) or the hold runs out,
// whichever is first, and never holds past the wait hint it would have
// answered at once. Without it the request answers at once.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	HoldMS   int64  `json:"hold_ms,omitempty"`
}

// Lease statuses.
const (
	// StatusShard carries a shard assignment.
	StatusShard = "shard"
	// StatusWait means every runnable shard is leased or backing off;
	// poll again after WaitMS.
	StatusWait = "wait"
	// StatusDone means no shard will ever be served again (a one-shot
	// daemon whose campaigns are all terminal); the worker exits.
	StatusDone = "done"
	// StatusFailed is a campaign's own terminal lease answer (a worker
	// reported a deterministic error, or a shard ran out of retries). The
	// service skips such a campaign instead of forwarding it; a worker
	// that does receive it exits with the error.
	StatusFailed = "failed"
)

// LeaseResponse is the body of a lease reply. CampaignID names the
// campaign a granted shard belongs to — the worker fetches that
// campaign's config and echoes the ID on heartbeats and completions so
// the service routes them to the right shard ledger.
//
// Held marks a wait answered after a hold: the wait already happened
// on the service side, so the worker asks again at once instead of
// sleeping WaitMS. A service that predates holds never sets it.
type LeaseResponse struct {
	Status     string `json:"status"`
	Shard      *Shard `json:"shard,omitempty"`
	WaitMS     int64  `json:"wait_ms,omitempty"`
	Held       bool   `json:"held,omitempty"`
	Error      string `json:"error,omitempty"`
	CampaignID string `json:"campaign_id,omitempty"`
}

// HeartbeatRequest extends a shard lease; CampaignID routes it.
type HeartbeatRequest struct {
	WorkerID   string `json:"worker_id"`
	ShardID    int    `json:"shard_id"`
	CampaignID string `json:"campaign_id,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat. OK false means the lease
// was lost (expired and requeued, the shard completed elsewhere, or the
// campaign was cancelled); the worker's result, if it still sends one,
// will be deduplicated.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// CompleteRequest delivers a shard's outcome. A non-empty Error marks
// the shard — and with it the campaign — failed: shard execution is
// deterministic, so retrying the same masks on another worker would
// fail identically. CampaignID routes the completion.
type CompleteRequest struct {
	WorkerID   string            `json:"worker_id"`
	ShardID    int               `json:"shard_id"`
	CampaignID string            `json:"campaign_id,omitempty"`
	Result     *core.ShardResult `json:"result,omitempty"`
	Error      string            `json:"error,omitempty"`
	// Spans are the shard's worker-side spans (matrix, cell, run,
	// phase), forwarded into the campaign's merged span file.
	// Snapshot piggybacks the worker's current telemetry snapshot for
	// the fleet aggregation. Both additive.
	Spans    []telemetry.Span    `json:"spans,omitempty"`
	Snapshot *telemetry.Snapshot `json:"snapshot,omitempty"`
}

// CompleteResponse acknowledges a completion. Accepted false means the
// shard had already been completed (a requeued shard finished twice);
// the duplicate was discarded, which is fine — the merge ledger is
// exactly-once per mask. Done and Failed report the campaign's terminal
// state in the acknowledgement itself, so the worker that delivers the
// final shard learns the outcome without another round trip.
type CompleteResponse struct {
	OK       bool   `json:"ok"`
	Accepted bool   `json:"accepted"`
	Done     bool   `json:"done,omitempty"`
	Failed   string `json:"failed,omitempty"`
	Error    string `json:"error,omitempty"`
}

// SnapshotRequest is the body of POST /v1/snapshot: a worker pushing
// its telemetry snapshot to the fleet aggregation outside the shard
// cycle — a draining worker posts its last word with Final set, so the
// fleet view stays complete after the worker exits.
type SnapshotRequest struct {
	WorkerID string             `json:"worker_id"`
	Snapshot telemetry.Snapshot `json:"snapshot"`
	Final    bool               `json:"final,omitempty"`
}

// SnapshotResponse acknowledges a snapshot push.
type SnapshotResponse struct {
	OK bool `json:"ok"`
}

// WorkerStatus is the per-worker accounting row served at
// /v1/fleet.json and /v1/campaigns/{id}/fleet.json — one entry per
// worker the service has heard from (on that campaign).
type WorkerStatus struct {
	ID         string  `json:"id"`
	Shard      int     `json:"shard"` // currently leased shard, -1 when idle
	ShardsDone int     `json:"shards_done"`
	LagSeconds float64 `json:"lag_seconds"` // seconds since last contact
	Final      bool    `json:"final,omitempty"`
}

// ---------------------------------------------------------------------
// Campaign service (submission, lifecycle, results).

// Campaign lifecycle states. Terminal states are StateDone,
// StateFailed and StateCancelled; everything else is live.
const (
	StateQueued     = "queued"
	StatePlanning   = "planning"
	StateRunning    = "running"
	StateFinalizing = "finalizing"
	StateDone       = "done"
	StateFailed     = "failed"
	StateCancelled  = "cancelled"
)

// TerminalState reports whether a lifecycle state is final.
func TerminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// SubmitOptions are the per-campaign artifact knobs of a submission —
// the service-side equivalent of faultcamp's -trace/-spans/-journal
// flags plus artifact placement.
type SubmitOptions struct {
	// Trace writes the JSONL injection trace beside the campaign logs.
	Trace bool `json:"trace,omitempty"`
	// Spans writes the JSONL span trace (campaign/shard/merge timings).
	Spans bool `json:"spans,omitempty"`
	// Journal journals every merged simulated run (fsync'd) — required
	// for the campaign to resume across a daemon restart instead of
	// re-running from scratch.
	Journal bool `json:"journal,omitempty"`
	// Divergence is implied by the config's own divergence knob; the
	// flag here only controls whether the provenance file is flushed.
	// ArtifactKey overrides the trace/spans/divergence file stem; the
	// default is the campaign key for single-cell configs and "matrix"
	// otherwise.
	ArtifactKey string `json:"artifact_key,omitempty"`
	// Flat stores artifacts at the logs-repository root under the
	// legacy single-campaign names instead of a per-campaign
	// subdirectory. The one-shot compatibility mode uses it; service
	// submissions normally leave it off so same-key campaigns from
	// different tenants never collide.
	Flat bool `json:"flat,omitempty"`
}

// SubmitRequest is the body of POST /v1/campaigns.
type SubmitRequest struct {
	SchemaVersion int `json:"schema_version,omitempty"`
	// Name is a human label; the service generates the campaign ID.
	Name string `json:"name,omitempty"`
	// Priority orders the queue (higher first, then submission order).
	Priority int `json:"priority,omitempty"`
	// Options select the artifacts recorded beside the merged logs.
	Options SubmitOptions `json:"options,omitempty"`
	// Config is the campaign to run, validated on submission.
	Config core.CampaignConfig `json:"config"`
}

// CampaignStatus is the body of GET /v1/campaigns/{id} and the element
// of list responses.
type CampaignStatus struct {
	SchemaVersion int    `json:"schema_version,omitempty"`
	ID            string `json:"id"`
	Tenant        string `json:"tenant,omitempty"`
	Name          string `json:"name,omitempty"`
	Priority      int    `json:"priority,omitempty"`
	State         string `json:"state"`
	Error         string `json:"error,omitempty"`
	// Resumed marks a campaign restored from the spool after a daemon
	// restart mid-run and resumed from its journal.
	Resumed bool `json:"resumed,omitempty"`
	// Keys are the campaign-cell keys; Masks the total mask budget.
	Keys  []string `json:"keys,omitempty"`
	Masks int      `json:"masks,omitempty"`
	// Shard accounting, live while running and frozen at finalize.
	Shards          int `json:"shards,omitempty"`
	ShardsCompleted int `json:"shards_completed,omitempty"`
	Requeues        int `json:"requeues,omitempty"`
	Duplicates      int `json:"duplicates,omitempty"`
	ShardsCancelled int `json:"shards_cancelled,omitempty"`
	// Unix-nanosecond lifecycle timestamps (zero when not reached).
	// FirstLeaseUnixNS is when a worker first leased one of the
	// campaign's shards; minus SubmittedUnixNS it is the campaign's time
	// in queue.
	SubmittedUnixNS  int64 `json:"submitted_unix_ns,omitempty"`
	StartedUnixNS    int64 `json:"started_unix_ns,omitempty"`
	FirstLeaseUnixNS int64 `json:"first_lease_unix_ns,omitempty"`
	FinishedUnixNS   int64 `json:"finished_unix_ns,omitempty"`

	Options SubmitOptions `json:"options,omitempty"`
}

// CampaignList is the body of GET /v1/campaigns.
type CampaignList struct {
	SchemaVersion int              `json:"schema_version,omitempty"`
	Campaigns     []CampaignStatus `json:"campaigns"`
}

// ResultsResponse is the body of GET /v1/campaigns/{id}/results: the
// indexed per-cell outcome breakdowns of a finished campaign, served
// from the result index without re-reading the JSONL logs.
type ResultsResponse struct {
	SchemaVersion int                  `json:"schema_version,omitempty"`
	ID            string               `json:"id"`
	State         string               `json:"state"`
	Cells         []fault.OutcomeIndex `json:"cells"`
}
