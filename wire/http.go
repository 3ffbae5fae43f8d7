package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"oarsmt/internal/errs"
)

// MaxBodyBytes bounds every request body a server reads. Layouts are
// JSON, and even dense 256x256x4 obstacle grids fit comfortably.
const MaxBodyBytes = 8 << 20

// ReadJSON is the server side of every POST: it checks the request's
// protocol version, reads the body (at most MaxBodyBytes) and unmarshals
// it into v. A bad version is ErrUnsupportedProto; a body that does not
// read, is over the limit or does not parse wraps malformed and the
// cause.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any, malformed error) error {
	if err := CheckProto(r); err != nil {
		return err
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		return fmt.Errorf("%w: request body: %w", malformed, err)
	}
	return nil
}

// ReadEnvelope reads a body that carries a layout, a RouteRequest or a
// ReplicateRequest whose Layout field is layout. A body over the limit
// is ErrTooLarge, like a layout over the volume budget; a malformed
// envelope, or one with no layout, is ErrInvalidLayout. The layout
// itself is left to the caller's one decode.
func ReadEnvelope(w http.ResponseWriter, r *http.Request, v any, layout *json.RawMessage) error {
	err := ReadJSON(w, r, v, errs.ErrInvalidLayout)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return fmt.Errorf("%w: request body too large", ErrTooLarge)
	case err != nil:
		return err
	case len(*layout) == 0:
		return fmt.Errorf("%w: request envelope has no layout", errs.ErrInvalidLayout)
	}
	return nil
}

// WriteJSON writes v as a 200 response with the protocol version header.
func WriteJSON(w http.ResponseWriter, v any) { writeJSON(w, http.StatusOK, v) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	SetProto(w.Header())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteHealthz answers GET /v1/healthz: 200 "ok" while serving, the
// ErrClosed answer (503 + Retry-After) once the server is draining.
func WriteHealthz(w http.ResponseWriter, draining bool) {
	if draining {
		WriteError(w, fmt.Errorf("%w: draining", ErrClosed))
		return
	}
	SetProto(w.Header())
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}
