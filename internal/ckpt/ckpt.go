// Package ckpt provides crash-safe, checksummed checkpoint files for
// long-running training jobs.
//
// A checkpoint is an opaque payload framed so that any torn, truncated or
// bit-flipped file is detected on load:
//
//	magic   "OARSMTCK"          (8 bytes)
//	version uint32 big-endian   (format version, currently 1)
//	length  uint64 big-endian   (payload byte count)
//	payload length bytes        (the caller's serialised state)
//	trailer SHA-256 over everything above (32 bytes)
//
// Save is atomic against crashes at any instruction: the frame is written
// to a temporary file in the same directory, fsynced, closed, renamed onto
// the final sequence-numbered name (ckpt-NNNNNNNN.ckpt) and the directory
// fsynced — a reader never observes a half-written final name, and a crash
// leaves at worst a stale *.tmp that the next Save of the same sequence
// overwrites. Latest scans a directory newest-first and transparently
// falls back past corrupt files to the newest checkpoint whose checksum
// verifies, so one torn write never strands a resumable run. Retain
// bounds disk growth by deleting all but the newest N checkpoints.
//
// The package is deliberately free of wall-clock reads: files carry no
// timestamps, so checkpoint bytes are a pure function of the payload and
// resume replays are bit-exact.
//
// The same write and listing serve any Series of framed, sequence-numbered
// files; internal/store keeps its segments as one (seg-NNNNNNNN.seg).
//
// Fault points (internal/fault): a series' point fires inside its Write —
// `ckpt.write` for checkpoints, `store.write` for store segments. Error
// aborts before the temp file is renamed (a clean crash), Partial renames
// a frame truncated mid-payload onto the final name (a torn write) so
// recovery paths can be exercised deterministically.
package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"oarsmt/internal/errs"
	"oarsmt/internal/fault"
)

// Version is the current checkpoint format version.
const Version = 1

const (
	magic       = "OARSMTCK"
	headerSize  = len(magic) + 4 + 8
	trailerSize = sha256.Size
	// maxPayload bounds the decode-time allocation a corrupt length field
	// can demand (1 GiB is far above any selector snapshot).
	maxPayload = 1 << 30
)

// Sentinel errors of the package.
var (
	// ErrCorrupt reports a checkpoint whose frame failed validation:
	// wrong magic, truncated payload, or checksum mismatch.
	ErrCorrupt = errors.New("ckpt: corrupt checkpoint")
	// ErrVersion reports a checkpoint written by an incompatible format
	// version.
	ErrVersion = errors.New("ckpt: unsupported checkpoint version")
	// ErrNotFound reports a directory holding no valid checkpoint.
	ErrNotFound = errors.New("ckpt: no valid checkpoint found")
)

// Encode frames the payload (header, payload, SHA-256 trailer) into w.
func Encode(w io.Writer, payload []byte) error {
	h := sha256.New()
	mw := io.MultiWriter(w, h)
	if err := writeHeader(mw, uint64(len(payload))); err != nil {
		return err
	}
	if _, err := mw.Write(payload); err != nil {
		return err
	}
	_, err := w.Write(h.Sum(nil))
	return err
}

func writeHeader(w io.Writer, length uint64) error {
	var hdr [headerSize]byte
	copy(hdr[:], magic)
	binary.BigEndian.PutUint32(hdr[len(magic):], Version)
	binary.BigEndian.PutUint64(hdr[len(magic)+4:], length)
	_, err := w.Write(hdr[:])
	return err
}

// Decode reads one framed checkpoint from r, verifying magic, version,
// length and checksum, and returns the payload. Truncations and
// corruptions of any kind match ErrCorrupt (or ErrVersion) under
// errors.Is.
func Decode(r io.Reader) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.BigEndian.Uint32(hdr[len(magic):]); v != Version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrVersion, v, Version)
	}
	length := binary.BigEndian.Uint64(hdr[len(magic)+4:])
	if length > maxPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: short payload: %v", ErrCorrupt, err)
	}
	var trailer [trailerSize]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, fmt.Errorf("%w: short trailer: %v", ErrCorrupt, err)
	}
	h := sha256.New()
	h.Write(hdr[:])
	h.Write(payload)
	if !bytes.Equal(h.Sum(nil), trailer[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// Series is one family of framed, sequence-numbered files in a directory:
// the training checkpoints (ckpt-NNNNNNNN.ckpt) and the route store's
// segments (seg-NNNNNNNN.seg).
type Series struct {
	// Format names file seq as fmt.Sprintf(Format, seq); it holds exactly
	// one %08d verb.
	Format string
	// Fault names the fault point Write checks.
	Fault string
}

// checkpoints is the series Save, List and Name address.
var checkpoints = Series{Format: "ckpt-%08d.ckpt", Fault: "ckpt.write"}

// Name returns the file name of sequence number seq.
func (s Series) Name(seq int) string { return fmt.Sprintf(s.Format, seq) }

// Name returns the checkpoint file name of sequence number seq.
func Name(seq int) string { return checkpoints.Name(seq) }

// Save atomically writes the payload as the checkpoint with sequence
// number seq in dir (creating the directory if needed) and returns its
// path; see Series.Write.
func Save(dir string, seq int, payload []byte) (string, error) {
	if seq < 0 {
		return "", fmt.Errorf("%w: ckpt: negative sequence number %d", errs.ErrInvalidConfig, seq)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return checkpoints.Write(dir, seq, payload)
}

// Write atomically lands the framed payload as file seq of the series in
// dir, which must exist, and returns its path. On any error the final
// name is either absent or still the previous file of that sequence —
// never a half-written frame — except under an injected partial-write
// fault, which deliberately lands a truncated frame to exercise recovery.
func (s Series) Write(dir string, seq int, payload []byte) (string, error) {
	final := filepath.Join(dir, s.Name(seq))
	tmp := final + ".tmp"

	frame := bytes.NewBuffer(make([]byte, 0, headerSize+len(payload)+trailerSize))
	if err := Encode(frame, payload); err != nil {
		return "", err
	}
	data := frame.Bytes()

	torn := false
	if v := fault.Check(s.Fault); v.Mode != fault.Off {
		switch v.Mode {
		case fault.Partial:
			// Simulate a torn write: half the frame lands on the final name.
			data = data[:len(data)/2]
			torn = true
		default:
			return "", fmt.Errorf("%s %s: %w", s.Fault, final, v.Err)
		}
	}

	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", err
	}
	syncDir(dir)
	if torn {
		return "", fmt.Errorf("%w: %s %s: injected torn write", fault.ErrInjected, s.Fault, final)
	}
	return final, nil
}

// syncDir fsyncs the directory so the rename itself is durable; best
// effort, since not every filesystem supports directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Load reads and validates the checkpoint at path.
func Load(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	payload, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return payload, nil
}

// Entry names one file of a series.
type Entry struct {
	Seq  int
	Path string
}

// List returns the checkpoints of dir sorted by ascending sequence number.
func List(dir string) ([]Entry, error) { return checkpoints.List(dir) }

// List returns the files of the series in dir sorted by ascending sequence
// number. Files not matching its name pattern (including leftover *.tmp
// files) are ignored. A missing directory lists empty.
func (s Series) List(dir string) ([]Entry, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	prefix, suffix, _ := strings.Cut(s.Format, "%08d")
	var out []Entry
	for _, de := range des {
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(de.Name(), prefix), suffix))
		if err != nil || de.IsDir() || de.Name() != s.Name(seq) { // exact names only: no *.tmp stragglers
			continue
		}
		out = append(out, Entry{Seq: seq, Path: filepath.Join(dir, de.Name())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// Latest returns the newest checkpoint of dir whose frame validates,
// together with its payload, skipping (but not deleting) corrupt files on
// the way down. It returns ErrNotFound when the directory holds no valid
// checkpoint.
func Latest(dir string) (Entry, []byte, error) {
	entries, err := List(dir)
	if err != nil {
		return Entry{}, nil, err
	}
	var lastErr error
	for i := len(entries) - 1; i >= 0; i-- {
		payload, err := Load(entries[i].Path)
		if err == nil {
			return entries[i], payload, nil
		}
		lastErr = err
	}
	if lastErr != nil {
		return Entry{}, nil, fmt.Errorf("%w (newest failure: %v)", ErrNotFound, lastErr)
	}
	return Entry{}, nil, ErrNotFound
}

// Retain deletes all but the newest keep checkpoints of dir (by sequence
// number, corrupt or not). keep <= 0 retains everything.
func Retain(dir string, keep int) error {
	if keep <= 0 {
		return nil
	}
	entries, err := List(dir)
	if err != nil {
		return err
	}
	for i := 0; i < len(entries)-keep; i++ {
		if err := os.Remove(entries[i].Path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}
