package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/svc/api"
	"repro/internal/svc/client"
)

// TestRetryPolicy pins the one request path's contract: a 5xx envelope
// is transient (retried, and the answer that follows it returned), a 4xx
// envelope is definitive (returned at once, typed), and a budget spent on
// 5xx answers ends in an error that still says so.
func TestRetryPolicy(t *testing.T) {
	var calls atomic.Int64
	var failFirst int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n := calls.Add(1); {
		case r.URL.Path == "/v1/campaigns/nope":
			api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "no campaign %q", "nope")
		case n <= failFirst:
			api.WriteError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "restarting")
		default:
			api.WriteJSON(w, api.LeaseResponse{Status: api.StatusWait, WaitMS: 7})
		}
	}))
	defer srv.Close()
	ctx := context.Background()
	cl := client.New(srv.URL+"/", client.WithRetry(4, time.Millisecond))
	if cl.Base() != srv.URL {
		t.Fatalf("Base() = %q, want the URL without its trailing slash", cl.Base())
	}

	failFirst = 2
	lease, err := cl.Lease(ctx, "w1")
	if err != nil || lease.Status != api.StatusWait || lease.WaitMS != 7 {
		t.Fatalf("lease behind two 503s: %+v, %v; want the third answer", lease, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (two retried 503s, one answer)", got)
	}

	calls.Store(0)
	_, err = cl.Get(ctx, "nope")
	var ae *api.Error
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound || ae.Code != api.CodeNotFound {
		t.Fatalf("get of an unknown campaign: %v; want the typed 404 not_found", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("a 4xx was tried %d times, want once", got)
	}
	if client.Retryable(err) {
		t.Fatal("a 4xx envelope reads as retryable")
	}

	calls.Store(0)
	failFirst = 1 << 30
	_, err = cl.Lease(ctx, "w1")
	if !errors.As(err, &ae) || ae.Code != api.CodeUnavailable {
		t.Fatalf("lease against a server that only answers 503: %v; want the last envelope wrapped", err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("server saw %d requests, want the whole budget of 4", got)
	}
	if !client.Retryable(err) {
		t.Fatal("a 5xx envelope that outlived the budget does not read as retryable")
	}
}

// TestRetryable: every error but a definitive 4xx answer is worth
// another try — no envelope ever arrived.
func TestRetryable(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	gone := srv.URL
	srv.Close()
	_, err := client.New(gone, client.WithRetry(2, time.Millisecond)).Lease(context.Background(), "w1")
	if err == nil || !client.Retryable(err) {
		t.Fatalf("lease against a closed port: %v (retryable %v); want a retryable connection error", err, client.Retryable(err))
	}
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{&api.Error{StatusCode: http.StatusConflict, Code: api.CodeConflict}, false},
		{fmt.Errorf("wrapped: %w", &api.Error{StatusCode: http.StatusTooManyRequests, Code: api.CodeQuotaExceeded}), false},
		{fmt.Errorf("wrapped: %w", &api.Error{StatusCode: http.StatusBadGateway, Code: api.CodeInternal}), true},
		{errors.New("connection reset by peer"), true},
	} {
		if got := client.Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestCancelEndsBackoff: a cancelled context ends the wait between
// tries at once with the context's error — the worker's shutdown path —
// instead of sleeping the back-off out.
func TestCancelEndsBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "restarting")
		cancel() // the first answer is out; the client is about to back off
	}))
	defer srv.Close()
	cl := client.New(srv.URL, client.WithRetry(3, time.Hour))
	start := time.Now()
	_, err := cl.Lease(ctx, "w1")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("lease cancelled in back-off: %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited >= 2*time.Second {
		t.Fatalf("cancellation took %s; the back-off (capped at 2s) was slept out", waited)
	}
	// Wait polls with the same contract.
	if _, err := cl.Wait(ctx, "c00000", time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on a cancelled context: %v, want context.Canceled", err)
	}
}

// TestWaitBacksOffToItsCap: a campaign that is done about 30 ms after
// submit is seen done within a few polls of that, not a whole poll
// period later — the first polls come milliseconds apart and the
// period is only their cap. A retryable error on the way keeps Wait
// polling.
func TestWaitBacksOffToItsCap(t *testing.T) {
	var gets atomic.Int64
	submitted := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n := gets.Add(1); {
		case n == 2:
			api.WriteError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "restarting")
		case time.Since(submitted) < 30*time.Millisecond:
			api.WriteJSON(w, api.CampaignStatus{ID: "c1", State: api.StateRunning})
		default:
			api.WriteJSON(w, api.CampaignStatus{ID: "c1", State: api.StateDone})
		}
	}))
	defer srv.Close()
	cl := client.New(srv.URL, client.WithRetry(1, time.Millisecond))
	st, err := cl.Wait(context.Background(), "c1", 500*time.Millisecond)
	took := time.Since(submitted)
	if err != nil || st.State != api.StateDone {
		t.Fatalf("Wait: %+v, %v; want the done status", st, err)
	}
	if took >= 300*time.Millisecond {
		t.Fatalf("Wait returned %s after submit for a campaign done after 30ms", took)
	}
	if n := gets.Load(); n < 3 || n > 10 {
		t.Fatalf("Wait made %d status requests, want 3 to 10", n)
	}
}
