package svc_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/svc"
	"repro/internal/svc/api"
	"repro/internal/svc/client"
)

// leaseAnswer is a lease reply and when it arrived.
type leaseAnswer struct {
	resp api.LeaseResponse
	at   time.Time
	err  error
}

// heldLease sends a lease request asking for hold in the background and
// returns once the service has seen it: the worker is in the fleet
// table, so the request is being held (or was answered).
func heldLease(t *testing.T, s *svc.Service, cl *client.Client, worker string, hold time.Duration) <-chan leaseAnswer {
	t.Helper()
	out := make(chan leaseAnswer, 1)
	go func() {
		resp, err := cl.LeaseHeld(context.Background(), worker, hold)
		out <- leaseAnswer{resp, time.Now(), err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, w := range s.Fleet("") {
			if w.ID == worker {
				return out
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease request of %s never reached the service", worker)
		}
		time.Sleep(time.Millisecond)
	}
}

func receive(t *testing.T, ch <-chan leaseAnswer, within time.Duration) leaseAnswer {
	t.Helper()
	select {
	case a := <-ch:
		if a.err != nil {
			t.Fatalf("lease: %v", a.err)
		}
		return a
	case <-time.After(within):
		t.Fatalf("no lease answer within %v", within)
	}
	return leaseAnswer{}
}

// TestHeldLeaseWakesOnSubmit holds a lease on an idle service and
// submits a campaign: the held request is granted the campaign's first
// shard as soon as its coordinator is published — within 50 ms of the
// submission, not at the end of the hold (the 500-ms idle hint) — and
// the campaign's time in queue is stamped at that lease.
func TestHeldLeaseWakesOnSubmit(t *testing.T) {
	s := newService(t, t.TempDir(), nil)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cl := client.New(srv.URL)

	held := heldLease(t, s, cl, "w", 10*time.Second)
	time.Sleep(20 * time.Millisecond)
	st, err := s.Submit("", api.SubmitRequest{Config: core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 4, Seed: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	a := receive(t, held, 2*time.Second)
	if a.resp.Status != api.StatusShard || a.resp.CampaignID != st.ID || a.resp.Held {
		t.Fatalf("held lease answered %+v, want a shard of %s", a.resp, st.ID)
	}
	if wait := time.Duration(a.at.UnixNano() - st.SubmittedUnixNS); wait > 50*time.Millisecond {
		t.Fatalf("held lease granted %v after the submission, want within 50ms", wait)
	}
	got, err := s.Get("", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.FirstLeaseUnixNS < got.SubmittedUnixNS || got.FirstLeaseUnixNS > a.at.UnixNano() {
		t.Fatalf("first lease stamped at %d, want between submission %d and the answer %d",
			got.FirstLeaseUnixNS, got.SubmittedUnixNS, a.at.UnixNano())
	}
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	if _, ok := wire["first_lease_unix_ns"]; !ok {
		t.Fatalf("status %s has no first_lease_unix_ns", b)
	}
}

// TestHeldLeaseReturnsOnClose holds a lease on an idle service and
// closes the service: the request answers at once with a held wait, and
// a hold asked of the closed service is not granted.
func TestHeldLeaseReturnsOnClose(t *testing.T) {
	s := newService(t, t.TempDir(), nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cl := client.New(srv.URL)

	held := heldLease(t, s, cl, "w", 10*time.Second)
	closed := time.Now()
	s.Close()
	a := receive(t, held, 2*time.Second)
	if a.resp.Status != api.StatusWait || !a.resp.Held {
		t.Fatalf("held lease answered %+v at close, want a held wait", a.resp)
	}
	if d := a.at.Sub(closed); d > 250*time.Millisecond {
		t.Fatalf("held lease answered %v after Close, want at once", d)
	}
	t0 := time.Now()
	resp, err := cl.LeaseHeld(context.Background(), "w", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Held || resp.Status != api.StatusWait || time.Since(t0) > 250*time.Millisecond {
		t.Fatalf("lease on a closed service answered %+v after %v, want an unheld wait at once", resp, time.Since(t0))
	}
}

// TestLeaseHoldTerms checks both ends of the hold: a request without
// one answers at once with the idle hint, and one whose hold runs out on
// an idle service answers a held wait no sooner than the hold.
func TestLeaseHoldTerms(t *testing.T) {
	s := newService(t, t.TempDir(), nil)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cl := client.New(srv.URL)

	t0 := time.Now()
	resp, err := cl.Lease(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != api.StatusWait || resp.Held || resp.WaitMS != 500 || time.Since(t0) > 250*time.Millisecond {
		t.Fatalf("lease without a hold answered %+v after %v, want the 500-ms hint at once", resp, time.Since(t0))
	}
	const hold = 40 * time.Millisecond
	t0 = time.Now()
	resp, err = cl.LeaseHeld(context.Background(), "w", hold)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); resp.Status != api.StatusWait || !resp.Held || d < hold {
		t.Fatalf("held lease answered %+v after %v, want a held wait after %v", resp, d, hold)
	}
}

// TestSpoolRestoresParentFormat restores a spool written by the
// one-file-per-campaign build (testdata/spool-v1: a done, a running, a
// queued and a cancelled campaign): Scan loads every entry as written,
// the service restores their states, and only the entries it changes
// are rewritten, stamped with the current schema version.
func TestSpoolRestoresParentFormat(t *testing.T) {
	dir := t.TempDir()
	spoolDir := filepath.Join(dir, "spool")
	if err := os.MkdirAll(spoolDir, 0o755); err != nil {
		t.Fatal(err)
	}
	src, err := filepath.Glob(filepath.Join("testdata", "spool-v1", "*.json"))
	if err != nil || len(src) != 4 {
		t.Fatalf("testdata spool: %v, %d entries", err, len(src))
	}
	want := map[string]*svc.SpoolEntry{}
	raw := map[string][]byte{}
	for _, p := range src {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var e svc.SpoolEntry
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatal(err)
		}
		want[e.ID], raw[e.ID] = &e, b
		if err := os.WriteFile(filepath.Join(spoolDir, filepath.Base(p)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := svc.OpenSpool(spoolDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sp.Scan()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range got {
		if e.SchemaVersion != 1 || !reflect.DeepEqual(e, want[e.ID]) {
			t.Fatalf("entry %s scanned as %+v, want it as written: %+v", e.ID, e, want[e.ID])
		}
	}

	s := newService(t, dir, nil)
	for id, wantState := range map[string]string{"c00000": api.StateDone, "c00003": api.StateCancelled} {
		st, err := s.Get("", id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != wantState || st.FinishedUnixNS != want[id].FinishedUnixNS {
			t.Fatalf("restored %s: %+v, want %s finished at %d", id, st, wantState, want[id].FinishedUnixNS)
		}
	}
	for id, resumed := range map[string]bool{"c00001": true, "c00002": false} {
		st, err := s.Get("", id)
		if err != nil {
			t.Fatal(err)
		}
		if api.TerminalState(st.State) || st.Resumed != resumed || st.SubmittedUnixNS != want[id].SubmittedUnixNS {
			t.Fatalf("restored %s: %+v, want it live, resumed %v", id, st, resumed)
		}
	}
	s.Close()

	got, err = sp.Scan()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range got {
		b, err := os.ReadFile(filepath.Join(spoolDir, e.ID+".json"))
		if err != nil {
			t.Fatal(err)
		}
		switch e.ID {
		case "c00000", "c00003":
			if string(b) != string(raw[e.ID]) {
				t.Fatalf("terminal entry %s was rewritten", e.ID)
			}
		default:
			if e.SchemaVersion != svc.SpoolSchemaVersion || !reflect.DeepEqual(e.Config, want[e.ID].Config) || e.Options != want[e.ID].Options {
				t.Fatalf("live entry %s after restart: %+v, want version %d with its submission", e.ID, e, svc.SpoolSchemaVersion)
			}
		}
	}
}

// TestSpoolStateLog spools a campaign and three state changes: the
// submission file is written once, Scan restores the last state, a torn
// tail on the state log (a crash mid-append) falls back to the state
// before it, and the next state change appends after the good lines.
func TestSpoolStateLog(t *testing.T) {
	dir := t.TempDir()
	sp, err := svc.OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := &svc.SpoolEntry{
		SchemaVersion: svc.SpoolSchemaVersion, ID: "c00007", Seq: 7, State: api.StateQueued, SubmittedUnixNS: 1,
		Config: core.CampaignConfig{Campaigns: []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}}, Injections: 200},
	}
	if err := sp.Put(e); err != nil {
		t.Fatal(err)
	}
	entry := filepath.Join(dir, "c00007.json")
	submitted, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	e.State, e.StartedUnixNS = api.StatePlanning, 2
	if err := sp.PutState(e); err != nil {
		t.Fatal(err)
	}
	e.State, e.FirstLeaseUnixNS = api.StateRunning, 3
	if err := sp.PutState(e); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(entry); err != nil || string(b) != string(submitted) {
		t.Fatalf("state changes rewrote the submission file (%v)", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "c00007.state.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"state":"fin`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sp2, err := svc.OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sp2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], e) {
		t.Fatalf("torn state log scanned as %+v, want the last complete state %+v", got[0], e)
	}
	got[0].State, got[0].FinishedUnixNS = api.StateDone, 4
	if err := sp2.PutState(got[0]); err != nil {
		t.Fatal(err)
	}
	again, err := sp2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again[0], got[0]) {
		t.Fatalf("state appended after a torn tail scanned as %+v, want %+v", again[0], got[0])
	}
}
