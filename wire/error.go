package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"oarsmt/internal/errs"
)

// Error is the JSON body of every non-2xx response. Message keeps the
// legacy "error" field name so pre-protocol clients still decode it; Code
// is the machine-readable sentinel code new clients match on.
type Error struct {
	Code    string `json:"code,omitempty"`
	Message string `json:"error"`
}

// codeEntry binds one sentinel to its wire code and HTTP status. The
// table is ordered: Code walks it front to back with errors.Is, so more
// specific sentinels (ErrQueueFull, ErrClosed) come before the broad
// retryability marker ErrTransient that injected faults also wrap.
type codeEntry struct {
	code     string
	sentinel error
	status   int
	// retryAfter marks backpressure answers that should carry a
	// Retry-After header.
	retryAfter bool
}

var codeTable = []codeEntry{
	{"queue_full", errs.ErrQueueFull, http.StatusTooManyRequests, true},
	{"closed", errs.ErrClosed, http.StatusServiceUnavailable, true},
	{"too_large", errs.ErrTooLarge, http.StatusRequestEntityTooLarge, false},
	{"unsupported_proto", errs.ErrUnsupportedProto, http.StatusBadRequest, false},
	{"timeout", errs.ErrTimeout, http.StatusGatewayTimeout, false},
	{"invalid_layout", errs.ErrInvalidLayout, http.StatusBadRequest, false},
	{"invalid_model", errs.ErrInvalidModel, http.StatusUnprocessableEntity, false},
	{"invalid_tree", errs.ErrInvalidTree, http.StatusUnprocessableEntity, false},
	{"invalid_config", errs.ErrInvalidConfig, http.StatusBadRequest, false},
	{"no_path", errs.ErrNoPath, http.StatusUnprocessableEntity, false},
	{"internal", errs.ErrInternal, http.StatusInternalServerError, false},
	{"transient", errs.ErrTransient, http.StatusServiceUnavailable, true},
}

// classify returns the table entry of the first sentinel the error
// matches. A bare context cancellation is the caller's own doing and
// classifies as a timeout; any other error is unclassified: no code,
// status 422 (the request was understood but not servable).
func classify(err error) codeEntry {
	for _, e := range codeTable {
		if errors.Is(err, e.sentinel) {
			return e
		}
	}
	if errors.Is(err, context.Canceled) {
		return codeEntry{code: "timeout", status: http.StatusGatewayTimeout}
	}
	return codeEntry{status: http.StatusUnprocessableEntity}
}

// Code returns the wire code of the first sentinel the error matches, or
// "" when it matches none (an unclassified error, which clients surface
// unwrapped).
func Code(err error) string { return classify(err).code }

// Sentinel returns the canonical sentinel for a wire code, or nil for an
// unknown code.
func Sentinel(code string) error {
	for _, e := range codeTable {
		if e.code == code {
			return e.sentinel
		}
	}
	return nil
}

// WriteError writes the error response for err: the mapped status, the
// Retry-After header on backpressure classes, the protocol version
// header, and the JSON Error body with the sentinel code.
func WriteError(w http.ResponseWriter, err error) {
	e := classify(err)
	if e.retryAfter {
		w.Header().Set("Retry-After", "1")
	}
	WriteErrorStatus(w, e.status, e.code, err.Error())
}

// WriteErrorStatus writes an explicit status/code/message error body; the
// handler-level helper for conditions that are not sentinel-backed (bad
// query parameters, oversized bodies).
func WriteErrorStatus(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, Error{Code: code, Message: msg})
}

// AsError reconstructs the client-side error for a non-2xx response: a
// known code wraps its sentinel (so errors.Is round-trips across the
// wire), and a body with an unknown or no code surfaces as a plain error
// that matches no sentinel.
func AsError(status int, body []byte) error {
	var e Error
	if err := json.Unmarshal(body, &e); err != nil || e.Message == "" {
		e.Message = fmt.Sprintf("HTTP %d: %s", status, string(body))
	}
	if s := Sentinel(e.Code); s != nil {
		return fmt.Errorf("%w: %s", s, e.Message)
	}
	return fmt.Errorf("server error (HTTP %d): %s", status, e.Message)
}
