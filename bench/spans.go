package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans are
// recorded only by the traced run, kept in memory, and written to
// spans.jsonl when it ends.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: root
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Count is the amount of work done inside the span, in the unit the
	// name implies (masks, shards, records); 0 when not counted.
	Count int64 `json:"count,omitempty"`
}

// tracer records spans. A nil *tracer records nothing, so the untraced
// run pays a nil check per boundary. Spans opened on one goroutine nest:
// a span's parent is the span open when it began.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []Span
	open     []int // stack of open span indices
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

type openSpan struct {
	t   *tracer
	idx int
}

func (t *tracer) begin(layer, name string) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := Span{ID: len(t.spans) + 1, Workload: t.workload, Layer: layer, Name: name, StartNS: time.Since(t.epoch).Nanoseconds()}
	if n := len(t.open); n > 0 {
		sp.Parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, sp)
	t.open = append(t.open, len(t.spans)-1)
	return &openSpan{t: t, idx: len(t.spans) - 1}
}

func (s *openSpan) end() { s.endCount(0) }

// endCount closes the span and records how much work it covered.
func (s *openSpan) endCount(n int64) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[s.idx].EndNS = time.Since(t.epoch).Nanoseconds()
	t.spans[s.idx].Count = n
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == s.idx {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

func (t *tracer) all() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children. Children may overlap each other
// (parallel work) and may overrun the parent; the covered part is the
// union of their intervals clipped to the parent's.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, hi := int64(0), s.StartNS
		for _, k := range kids {
			lo, end := max(k.StartNS, hi), min(k.EndNS, s.EndNS)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
