package api_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/svc/api"
)

// repeat is an endless stream of one byte.
type repeat byte

func (r repeat) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// TestReadJSON: the one body decoder of the service accepts exactly one
// JSON value of bounded size in a POST, and answers everything else with
// the shared envelope itself.
func TestReadJSON(t *testing.T) {
	cases := []struct {
		name, method string
		body         io.Reader
		status       int
		code         string
		message      string // substring of the envelope message
	}{
		{"one value", http.MethodPost, strings.NewReader(`{"worker_id":"w1"}`), http.StatusOK, "", ""},
		{"trailing whitespace", http.MethodPost, strings.NewReader("{\"worker_id\":\"w1\"}\n \t\n"), http.StatusOK, "", ""},
		{"wrong method", http.MethodGet, strings.NewReader(`{"worker_id":"w1"}`), http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "POST only"},
		{"empty", http.MethodPost, strings.NewReader(""), http.StatusBadRequest, api.CodeBadRequest, "EOF"},
		{"torn", http.MethodPost, strings.NewReader(`{"worker_id":"w`), http.StatusBadRequest, api.CodeBadRequest, "unexpected EOF"},
		{"wrong type", http.MethodPost, strings.NewReader(`{"worker_id":7}`), http.StatusBadRequest, api.CodeBadRequest, "worker_id"},
		{"second value", http.MethodPost, strings.NewReader(`{"worker_id":"w1"}{"worker_id":"w2"}`), http.StatusBadRequest, api.CodeBadRequest, "data after the JSON value"},
		{"trailing garbage", http.MethodPost, strings.NewReader(`{"worker_id":"w1"}]`), http.StatusBadRequest, api.CodeBadRequest, "data after the JSON value"},
		{"oversized", http.MethodPost, io.MultiReader(strings.NewReader(`{"worker_id":"`), repeat('a')),
			http.StatusRequestEntityTooLarge, api.CodeBadRequest, "exceeds"},
		{"oversized padding", http.MethodPost, io.MultiReader(strings.NewReader(`{"worker_id":"w1"}`), repeat(' ')),
			http.StatusRequestEntityTooLarge, api.CodeBadRequest, "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			var req api.LeaseRequest
			ok := api.ReadJSON(rec, httptest.NewRequest(tc.method, "/v1/lease", tc.body), &req)
			if ok != (tc.status == http.StatusOK) {
				t.Fatalf("ReadJSON = %v, want status %d", ok, tc.status)
			}
			if ok {
				if req.WorkerID != "w1" || rec.Body.Len() != 0 {
					t.Fatalf("decoded %+v and wrote %q; want w1 and nothing written", req, rec.Body)
				}
				return
			}
			var env api.ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("status %d body %q is not the envelope: %v", rec.Code, rec.Body, err)
			}
			if rec.Code != tc.status || env.Error.Code != tc.code || !strings.Contains(env.Error.Message, tc.message) {
				t.Fatalf("answered %d %+v; want %d %s with %q in the message", rec.Code, env.Error, tc.status, tc.code, tc.message)
			}
		})
	}
}

// TestDecodeError: a non-200 answer becomes a typed *Error whether it
// carries the envelope or, from a peer or proxy that predates it, plain
// text; the status class decides retryability either way.
func TestDecodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	api.WriteError(rec, http.StatusTooManyRequests, api.CodeQuotaExceeded, "tenant %q is full", "bob")
	e := api.DecodeError(rec.Code, rec.Body)
	if e.StatusCode != http.StatusTooManyRequests || e.Code != api.CodeQuotaExceeded || e.Message != `tenant "bob" is full` || e.IsRetryable() {
		t.Fatalf("envelope decoded to %+v (retryable %v)", e, e.IsRetryable())
	}
	if !strings.Contains(e.Error(), "429") || !strings.Contains(e.Error(), api.CodeQuotaExceeded) {
		t.Fatalf("Error() = %q lacks the status or the code", e.Error())
	}
	for _, tc := range []struct {
		status    int
		body      string
		code      string
		retryable bool
	}{
		{http.StatusNotFound, "404 page not found\n", api.CodeBadRequest, false},
		{http.StatusBadGateway, "  upstream connect error\n", api.CodeInternal, true},
		{http.StatusBadRequest, `{"error":{"message":"no code"}}`, api.CodeBadRequest, false},
	} {
		e := api.DecodeError(tc.status, strings.NewReader(tc.body))
		if e.StatusCode != tc.status || e.Code != tc.code || e.Message != strings.TrimSpace(tc.body) || e.IsRetryable() != tc.retryable {
			t.Fatalf("plain body %q at %d decoded to %+v (retryable %v); want code %s, the trimmed text, retryable %v",
				tc.body, tc.status, e, e.IsRetryable(), tc.code, tc.retryable)
		}
	}
	// A runaway body is cut, not buffered.
	if e := api.DecodeError(http.StatusInternalServerError, repeat('x')); len(e.Message) != 4096 {
		t.Fatalf("unbounded error body kept %d bytes, want 4096", len(e.Message))
	}
}
