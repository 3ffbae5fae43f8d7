package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"oarsmt/internal/ckpt"
	"oarsmt/internal/grid"
)

// Key is the content address of a stored route: the augmentation-normalized
// canonical layout hash computed by internal/serve. Two layouts share a key
// exactly when one is an augmentation of the other.
type Key [32]byte

// Fingerprint identifies the selector model a record was routed with: the
// SHA-256 over the network's weights in canonical Params() order
// (selector.Fingerprint). A store opened under a different fingerprint
// drops every stored record, so a retrained model can never serve a stale
// route.
type Fingerprint [32]byte

// Record is one routed layout in its canonical orientation: the same
// coordinate-space shape internal/serve caches in memory, so an entry can
// be replayed into any of the 16 symmetric request orientations. Records
// handed out by Get are shared and must be treated as read-only.
type Record struct {
	Key         Key
	H, V, M     int        // canonical grid dimensions
	Root        grid.Coord // tree root, canonical space
	Edges       [][2]grid.Coord
	Steiner     []grid.Coord
	UsedSteiner bool
	Proposed    int // Steiner points the selector proposed
	Cost        float64
}

// Segment payload layout (wrapped in an internal/ckpt frame, which carries
// the magic, version, length and SHA-256 trailer):
//
//	segMagic    "OARSMTSG"       (8 bytes)
//	segVersion  uint32 LE        (currently 1)
//	fingerprint [32]byte         (selector weight hash of every record)
//	count       uint64 LE        (record count)
//	records     count x record
//
// One record, all integers little-endian:
//
//	key       [32]byte
//	h, v, m   uint32
//	root      3 x int32
//	cost      float64 bits
//	flags     uint8 (bit 0: usedSteiner)
//	proposed  uint32
//	nEdges    uint32, then nEdges x 6 x int32
//	nSteiner  uint32, then nSteiner x 3 x int32
//
// The encoding is deterministic: segments written from the same records in
// the same order are bit-identical, which keeps compaction reproducible.
const (
	segMagic      = "OARSMTSG"
	segVersion    = 1
	segHeaderSize = len(segMagic) + 4 + 32 + 8
	recFixedSize  = 32 + 3*4 + 3*4 + 8 + 1 + 4 + 4 + 4 // everything but the coord arrays
	edgeSize      = 6 * 4
	coordSize     = 3 * 4
	// maxDim bounds a decoded grid dimension; far above any routable
	// layout, low enough that a corrupt length cannot drive allocation.
	maxDim = 1 << 20
)

// Sentinel errors of the package.
var (
	// ErrCorruptSegment reports a segment whose payload failed structural
	// validation (the frame around it is checked separately by
	// internal/ckpt and fails with ckpt.ErrCorrupt). Open degrades both to
	// a skipped segment, never a wrong route.
	ErrCorruptSegment = errors.New("store: corrupt segment")
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("store: closed")
)

// appendRecord serialises one record.
func appendRecord(buf []byte, r *Record) []byte {
	buf = append(buf, r.Key[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.H))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.V))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.M))
	buf = appendCoord(buf, r.Root)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Cost))
	var flags byte
	if r.UsedSteiner {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Proposed))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Edges)))
	for _, e := range r.Edges {
		buf = appendCoord(buf, e[0])
		buf = appendCoord(buf, e[1])
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Steiner)))
	for _, c := range r.Steiner {
		buf = appendCoord(buf, c)
	}
	return buf
}

func appendCoord(buf []byte, c grid.Coord) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(c.H)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(c.V)))
	return binary.LittleEndian.AppendUint32(buf, uint32(int32(c.M)))
}

// encodeSegment serialises the records (in the given order) into a segment
// payload ready for ckpt framing.
func encodeSegment(fp Fingerprint, recs []*Record) []byte {
	n := segHeaderSize
	for _, r := range recs {
		n += recFixedSize + len(r.Edges)*edgeSize + len(r.Steiner)*coordSize
	}
	buf := make([]byte, 0, n)
	buf = append(buf, segMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, segVersion)
	buf = append(buf, fp[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(recs)))
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	return buf
}

// segReader is a bounds-checked cursor over a segment payload.
type segReader struct {
	buf []byte
	off int
	err error
}

func (d *segReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorruptSegment}, args...)...)
	}
}

func (d *segReader) remaining() int { return len(d.buf) - d.off }

func (d *segReader) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.remaining() < n {
		d.fail("truncated at offset %d (need %d bytes, have %d)", d.off, n, d.remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *segReader) u32() uint32 {
	if b := d.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *segReader) u64() uint64 {
	if b := d.bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *segReader) coord() grid.Coord {
	return grid.Coord{H: int(int32(d.u32())), V: int(int32(d.u32())), M: int(int32(d.u32()))}
}

// decodeSegment parses a segment payload. Any structural problem — bad
// magic, truncation, implausible counts or dimensions — yields an error
// matching ErrCorruptSegment; the decoder never panics and never allocates
// more than the payload length justifies, which FuzzSegmentDecode pins.
func decodeSegment(payload []byte) (Fingerprint, []*Record, error) {
	var fp Fingerprint
	d := &segReader{buf: payload}
	if m := d.bytes(len(segMagic)); m != nil && string(m) != segMagic {
		return fp, nil, fmt.Errorf("%w: bad magic", ErrCorruptSegment)
	}
	if v := d.u32(); d.err == nil && v != segVersion {
		return fp, nil, fmt.Errorf("%w: version %d, want %d", ErrCorruptSegment, v, segVersion)
	}
	if b := d.bytes(32); b != nil {
		copy(fp[:], b)
	}
	count := d.u64()
	if d.err != nil {
		return fp, nil, d.err
	}
	if count > uint64(d.remaining()/recFixedSize) {
		return fp, nil, fmt.Errorf("%w: implausible record count %d for %d payload bytes",
			ErrCorruptSegment, count, d.remaining())
	}
	recs := make([]*Record, 0, count)
	for i := uint64(0); i < count; i++ {
		r, err := decodeRecord(d)
		if err != nil {
			return fp, nil, err
		}
		recs = append(recs, r)
	}
	if d.remaining() != 0 {
		return fp, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptSegment, d.remaining())
	}
	return fp, recs, nil
}

func decodeRecord(d *segReader) (*Record, error) {
	r := &Record{}
	if b := d.bytes(32); b != nil {
		copy(r.Key[:], b)
	}
	r.H, r.V, r.M = int(d.u32()), int(d.u32()), int(d.u32())
	r.Root = d.coord()
	r.Cost = math.Float64frombits(d.u64())
	if b := d.bytes(1); b != nil {
		if b[0]&^1 != 0 {
			return nil, fmt.Errorf("%w: unknown flag bits %#x", ErrCorruptSegment, b[0])
		}
		r.UsedSteiner = b[0]&1 != 0
	}
	r.Proposed = int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if r.H <= 0 || r.V <= 0 || r.M <= 0 || r.H > maxDim || r.V > maxDim || r.M > maxDim {
		return nil, fmt.Errorf("%w: implausible dimensions %dx%dx%d", ErrCorruptSegment, r.H, r.V, r.M)
	}
	nEdges := d.u32()
	if d.err == nil && int(nEdges) > d.remaining()/edgeSize {
		return nil, fmt.Errorf("%w: implausible edge count %d", ErrCorruptSegment, nEdges)
	}
	if d.err == nil {
		r.Edges = make([][2]grid.Coord, nEdges)
		for i := range r.Edges {
			r.Edges[i] = [2]grid.Coord{d.coord(), d.coord()}
		}
	}
	nSteiner := d.u32()
	if d.err == nil && int(nSteiner) > d.remaining()/coordSize {
		return nil, fmt.Errorf("%w: implausible Steiner count %d", ErrCorruptSegment, nSteiner)
	}
	if d.err == nil {
		r.Steiner = make([]grid.Coord, nSteiner)
		for i := range r.Steiner {
			r.Steiner[i] = d.coord()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// segments is the store's file series: ckpt frames named
// seg-NNNNNNNN.seg, landed by ckpt's atomic write under the `store.write`
// fault point. A crash at any instruction leaves at worst a stale *.tmp
// that listing ignores.
var segments = ckpt.Series{Format: "seg-%08d.seg", Fault: "store.write"}
