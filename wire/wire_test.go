package wire

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"oarsmt/internal/errs"
)

func reqWithProto(t *testing.T, proto string) *http.Request {
	t.Helper()
	r, err := http.NewRequest(http.MethodPost, "/v1/route", nil)
	if err != nil {
		t.Fatal(err)
	}
	if proto != "" {
		r.Header.Set(ProtoHeader, proto)
	}
	return r
}

func TestCheckProto(t *testing.T) {
	for _, tc := range []struct {
		proto string
		ok    bool
	}{
		{"", true}, // pre-protocol clients send no header
		{strconv.Itoa(Version), true},
		{strconv.Itoa(MinVersion), true},
		{strconv.Itoa(Version + 1), false},
		{strconv.Itoa(MinVersion - 1), false},
		{"banana", false},
	} {
		err := CheckProto(reqWithProto(t, tc.proto))
		if tc.ok && err != nil {
			t.Errorf("CheckProto(%q) = %v, want nil", tc.proto, err)
		}
		if !tc.ok && !errors.Is(err, ErrUnsupportedProto) {
			t.Errorf("CheckProto(%q) = %v, want ErrUnsupportedProto", tc.proto, err)
		}
	}
}

// TestCodeTableComplete: every sentinel in the internal/errs table has a
// wire code, codes are unique, and Code/Sentinel invert each other.
func TestCodeTableComplete(t *testing.T) {
	sentinels := []error{
		errs.ErrTimeout, errs.ErrQueueFull, errs.ErrInvalidLayout,
		errs.ErrNoPath, errs.ErrInvalidModel, errs.ErrInternal,
		errs.ErrTransient, errs.ErrInvalidTree, errs.ErrInvalidConfig,
		errs.ErrClosed, errs.ErrTooLarge, errs.ErrUnsupportedProto,
	}
	if len(codeTable) != len(sentinels) {
		t.Fatalf("code table has %d entries, errs table has %d sentinels", len(codeTable), len(sentinels))
	}
	seen := map[string]bool{}
	for _, e := range codeTable {
		if seen[e.code] {
			t.Errorf("duplicate wire code %q", e.code)
		}
		seen[e.code] = true
	}
	for _, s := range sentinels {
		code := Code(fmt.Errorf("wrapped: %w", s))
		if code == "" {
			t.Errorf("sentinel %v has no wire code", s)
			continue
		}
		if got := Sentinel(code); !errors.Is(got, s) {
			t.Errorf("Sentinel(Code(%v)) = %v, identity lost", s, got)
		}
	}
	if Code(errors.New("plain")) != "" {
		t.Error("unclassified error got a wire code")
	}
	if Sentinel("no_such_code") != nil {
		t.Error("unknown code resolved to a sentinel")
	}
}

// TestWriteErrorRoundTrip: WriteError → AsError preserves the sentinel,
// the status, and the Retry-After convention on backpressure classes.
func TestWriteErrorRoundTrip(t *testing.T) {
	for _, e := range codeTable {
		rec := httptest.NewRecorder()
		WriteError(rec, fmt.Errorf("ctx: %w", e.sentinel))
		if rec.Code != e.status {
			t.Errorf("%s: status %d, want %d", e.code, rec.Code, e.status)
		}
		if got := rec.Header().Get("Retry-After") != ""; got != e.retryAfter {
			t.Errorf("%s: Retry-After present=%v, want %v", e.code, got, e.retryAfter)
		}
		if rec.Header().Get(ProtoHeader) != strconv.Itoa(Version) {
			t.Errorf("%s: error response missing proto header", e.code)
		}
		back := AsError(rec.Code, rec.Body.Bytes())
		if !errors.Is(back, e.sentinel) {
			t.Errorf("%s: AsError = %v, lost the sentinel", e.code, back)
		}
	}
	// Outside the table: a bare cancellation is a timeout, anything else
	// an unclassified 422 with no code.
	for _, tc := range []struct {
		err    error
		status int
		code   string
	}{
		{fmt.Errorf("ctx: %w", context.Canceled), http.StatusGatewayTimeout, "timeout"},
		{errors.New("plain"), http.StatusUnprocessableEntity, ""},
	} {
		rec := httptest.NewRecorder()
		WriteError(rec, tc.err)
		if rec.Code != tc.status || Code(tc.err) != tc.code {
			t.Errorf("%v: status %d, code %q; want %d, %q", tc.err, rec.Code, Code(tc.err), tc.status, tc.code)
		}
		if rec.Header().Get("Retry-After") != "" {
			t.Errorf("%v: unexpected Retry-After", tc.err)
		}
	}
}

// TestAsErrorWithoutCode: a body with no known code maps onto no
// sentinel, whatever its status; it is still an error.
func TestAsErrorWithoutCode(t *testing.T) {
	err := AsError(http.StatusServiceUnavailable, []byte(`{"error":"overloaded"}`))
	if err == nil {
		t.Fatal("codeless 503 must be an error")
	}
	if code := Code(err); code != "" {
		t.Errorf("codeless 503 = %v, classified as %q", err, code)
	}
	if err := AsError(http.StatusTeapot, []byte(`nonsense`)); err == nil {
		t.Error("unmapped status must still be an error")
	}
}
