package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// SpanSchemaVersion is the version stamped into every span record this
// build writes; readers accept spans up to this version and reject
// newer ones.
//
// Version history:
//
//	1 — initial format (PR 7).
const SpanSchemaVersion = 1

// Span kinds, from the root down: a campaign span covers one matrix
// dispatch (or the whole distributed campaign on the coordinator), a
// cell span one {tool, benchmark, structure} campaign within it, a
// shard span one leased mask range of the distributed protocol, a run
// span one injection run, and a phase span one tier of a run
// (golden, fork/detail for a run with no window and
// fast-forward/window/drain for a windowed one on workers, merge on the
// coordinator).
const (
	SpanCampaign = "campaign"
	SpanCell     = "cell"
	SpanShard    = "shard"
	SpanRun      = "run"
	SpanPhase    = "phase"
)

// Span is one JSONL span record of the run-tracing pillar. Spans carry
// wall-clock endpoints (they are a timing artifact, exempt from the
// byte-stability rule the trace and divergence files obey) plus the
// simulated work the span covered: Cycles for detailed-tier spans,
// Steps for functional-tier spans.
type Span struct {
	SchemaVersion int `json:"schema_version,omitempty"`

	// TraceID groups every span of one campaign; SpanID is unique
	// within the trace and ParentID links the tree. Seq is a
	// per-process emission sequence number (spans are flushed in Seq
	// order, which keeps a single process's file stable for a given
	// interleaving).
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Seq      uint64 `json:"seq"`

	Kind string `json:"kind"`
	Name string `json:"name"`

	// Campaign and MaskID locate run/phase spans; Worker names the
	// process that emitted the span (the dist worker ID, or "local").
	Campaign string `json:"campaign,omitempty"`
	MaskID   *int   `json:"mask_id,omitempty"`
	Worker   string `json:"worker,omitempty"`

	StartUnixNS int64 `json:"start_unix_ns"`
	EndUnixNS   int64 `json:"end_unix_ns"`

	Cycles uint64 `json:"cycles,omitempty"`
	Steps  uint64 `json:"steps,omitempty"`
	Err    string `json:"err,omitempty"`
}

// SpanSink consumes finished spans; implementations must be safe for
// concurrent use.
type SpanSink interface {
	SpanEvent(sp Span)
}

// Tracer mints span identities and fans finished spans out to sinks.
// One Tracer spans one process; its prefix keeps span IDs unique
// across the fleet (the coordinator uses "c", workers their worker ID).
type Tracer struct {
	traceID string
	prefix  string
	ids     atomic.Uint64
	seq     atomic.Uint64

	mu    sync.Mutex
	sinks atomic.Value // []SpanSink, copy-on-write
}

// NewTracer returns a tracer for traceID, minting span IDs under
// prefix.
func NewTracer(traceID, prefix string) *Tracer {
	return &Tracer{traceID: traceID, prefix: prefix}
}

// TraceID returns the trace this tracer stamps into spans.
func (t *Tracer) TraceID() string { return t.traceID }

// AddSink attaches a span sink.
func (t *Tracer) AddSink(s SpanSink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sinks []SpanSink
	if v := t.sinks.Load(); v != nil {
		sinks = append(sinks, v.([]SpanSink)...)
	}
	t.sinks.Store(append(sinks, s))
}

// NewSpanID mints a trace-unique span ID.
func (t *Tracer) NewSpanID() string {
	return t.prefix + "-" + strconv.FormatUint(t.ids.Add(1), 10)
}

// Emit finalizes a span: it stamps the trace ID, a fresh span ID if the
// span has none, the schema version and the next sequence number, then
// fans it out.
func (t *Tracer) Emit(sp Span) {
	if sp.TraceID == "" {
		sp.TraceID = t.traceID
	}
	if sp.SpanID == "" {
		sp.SpanID = t.NewSpanID()
	}
	if sp.SchemaVersion == 0 {
		sp.SchemaVersion = SpanSchemaVersion
	}
	sp.Seq = t.seq.Add(1)
	if v := t.sinks.Load(); v != nil {
		for _, s := range v.([]SpanSink) {
			s.SpanEvent(sp)
		}
	}
}

// Forward re-emits a span minted by another process (a worker span
// arriving at the coordinator): identities and timestamps are kept,
// only the local sequence number is reassigned so the merged file
// flushes in arrival order.
func (t *Tracer) Forward(sp Span) {
	if sp.SchemaVersion == 0 {
		sp.SchemaVersion = SpanSchemaVersion
	}
	sp.Seq = t.seq.Add(1)
	if v := t.sinks.Load(); v != nil {
		for _, s := range v.([]SpanSink) {
			s.SpanEvent(sp)
		}
	}
}

// ActiveSpan is an open span handle returned by Begin.
type ActiveSpan struct {
	t  *Tracer
	sp Span
}

// Begin opens a span now and returns its handle; the span is emitted
// by End. The span ID is minted eagerly so children can parent on it
// before the span ends.
func (t *Tracer) Begin(kind, name, parentID string) *ActiveSpan {
	return &ActiveSpan{t: t, sp: Span{
		SpanID:      t.NewSpanID(),
		ParentID:    parentID,
		Kind:        kind,
		Name:        name,
		StartUnixNS: time.Now().UnixNano(),
	}}
}

// ID returns the span's pre-minted ID for parenting children.
func (a *ActiveSpan) ID() string { return a.sp.SpanID }

// End stamps the end time, applies opts to the span, and emits it.
func (a *ActiveSpan) End(opts ...func(*Span)) {
	a.sp.EndUnixNS = time.Now().UnixNano()
	for _, o := range opts {
		o(&a.sp)
	}
	a.t.Emit(a.sp)
}

// SpanBuffer is a SpanSink accumulating spans in memory; Flush writes
// them in Seq order as JSON Lines.
type SpanBuffer struct {
	mu    sync.Mutex
	spans []Span
}

// NewSpanBuffer returns an empty buffer.
func NewSpanBuffer() *SpanBuffer { return &SpanBuffer{} }

// SpanEvent implements SpanSink.
func (b *SpanBuffer) SpanEvent(sp Span) {
	b.mu.Lock()
	b.spans = append(b.spans, sp)
	b.mu.Unlock()
}

// Len reports the number of buffered spans.
func (b *SpanBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.spans)
}

// Spans returns a copy of the buffered spans sorted by Seq.
func (b *SpanBuffer) Spans() []Span {
	b.mu.Lock()
	spans := append([]Span(nil), b.spans...)
	b.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })
	return spans
}

// Flush writes the buffered spans to w as JSON Lines.
func (b *SpanBuffer) Flush(w io.Writer) error {
	return WriteSpans(w, b.Spans())
}

// WriteSpans writes spans as JSON Lines, stamping the current schema
// version into spans that do not carry one.
func WriteSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		sp := spans[i]
		if sp.SchemaVersion == 0 {
			sp.SchemaVersion = SpanSchemaVersion
		}
		if err := enc.Encode(&sp); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpans reads a JSONL span file, tolerating versionless spans and
// rejecting spans newer than this build understands.
func ReadSpans(r io.Reader) ([]Span, error) {
	var spans []Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var sp Span
		if err := json.Unmarshal(line, &sp); err != nil {
			return nil, fmt.Errorf("span record %d: %w", len(spans), err)
		}
		if sp.SchemaVersion > SpanSchemaVersion {
			return nil, fmt.Errorf("span record %d has schema version %d, this build understands <= %d",
				len(spans), sp.SchemaVersion, SpanSchemaVersion)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}
