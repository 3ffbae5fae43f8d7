package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"oarsmt/internal/fault"
	"oarsmt/internal/grid"
	"oarsmt/internal/obs"
)

// testOptions returns deterministic options over a fresh temp dir: a fixed
// fake clock and synchronous-friendly small batches.
func testOptions(t *testing.T, dir string) Options {
	t.Helper()
	var tick int64
	return Options{
		Dir:          dir,
		Fingerprint:  Fingerprint{1, 2, 3},
		MaxEntries:   64,
		FlushEvery:   4,
		CompactAfter: 3,
		Registry:     obs.NewRegistry(),
		now:          func() int64 { tick += 1000; return tick },
	}
}

func testRecord(i int) *Record {
	var k Key
	k[0], k[1] = byte(i), byte(i>>8)
	return &Record{
		Key:  k,
		H:    4 + i%3, V: 5, M: 2,
		Root: grid.Coord{H: i % 4, V: 1, M: 0},
		Edges: [][2]grid.Coord{
			{{H: 0, V: 0, M: 0}, {H: 1, V: 0, M: 0}},
			{{H: 1, V: 0, M: 0}, {H: 1, V: 1, M: 0}},
		},
		Steiner:     []grid.Coord{{H: 1, V: 0, M: 0}},
		UsedSteiner: i%2 == 0,
		Proposed:    i % 5,
		Cost:        float64(i) + 0.25,
	}
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func recordsEqual(a, b *Record) bool {
	if a.Key != b.Key || a.H != b.H || a.V != b.V || a.M != b.M ||
		a.Root != b.Root || a.UsedSteiner != b.UsedSteiner ||
		a.Proposed != b.Proposed || a.Cost != b.Cost ||
		len(a.Edges) != len(b.Edges) || len(a.Steiner) != len(b.Steiner) {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	for i := range a.Steiner {
		if a.Steiner[i] != b.Steiner[i] {
			return false
		}
	}
	return true
}

func TestSegmentCodecRoundTrip(t *testing.T) {
	fp := Fingerprint{9, 8, 7}
	recs := []*Record{testRecord(1), testRecord(2), testRecord(300)}
	payload := encodeSegment(fp, recs)
	gotFP, got, err := decodeSegment(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != fp {
		t.Fatalf("fingerprint round trip: got %v want %v", gotFP, fp)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !recordsEqual(got[i], recs[i]) {
			t.Errorf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
	// The codec is deterministic: encoding again is bit-identical.
	if !bytes.Equal(payload, encodeSegment(fp, recs)) {
		t.Error("re-encoding the same records changed the bytes")
	}
}

func TestSegmentCodecRejectsCorruption(t *testing.T) {
	payload := encodeSegment(Fingerprint{1}, []*Record{testRecord(1), testRecord(2)})
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("NOTMAGIC"), payload[8:]...),
		"truncated":  payload[:len(payload)-5],
		"trailing":   append(append([]byte{}, payload...), 0xFF),
		"mid header": payload[:10],
	}
	for name, b := range cases {
		if _, _, err := decodeSegment(b); !errors.Is(err, ErrCorruptSegment) {
			t.Errorf("%s: err = %v, want ErrCorruptSegment", name, err)
		}
	}
	// A corrupted record count must not drive allocation or succeed.
	huge := append([]byte{}, payload...)
	copy(huge[segHeaderSize-8:segHeaderSize], []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	if _, _, err := decodeSegment(huge); !errors.Is(err, ErrCorruptSegment) {
		t.Errorf("huge count: err = %v, want ErrCorruptSegment", err)
	}
}

func TestStorePutGetFlushReload(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	s := mustOpen(t, opts)

	var recs []*Record
	for i := 0; i < 10; i++ {
		r := testRecord(i)
		recs = append(recs, r)
		s.Put(r)
	}
	for _, r := range recs {
		got, ok := s.Get(r.Key)
		if !ok || !recordsEqual(got, r) {
			t.Fatalf("Get(%v) = %+v, %v", r.Key[:2], got, ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory serves every record.
	s2 := mustOpen(t, testOptions(t, dir))
	if s2.Len() != len(recs) {
		t.Fatalf("reloaded %d records, want %d", s2.Len(), len(recs))
	}
	for _, r := range recs {
		got, ok := s2.Get(r.Key)
		if !ok || !recordsEqual(got, r) {
			t.Fatalf("reloaded Get(%v) = %+v, %v", r.Key[:2], got, ok)
		}
	}
	st := s2.Stats()
	if st.Hits != int64(len(recs)) || st.Misses != 0 {
		t.Errorf("stats after warm reads: %+v", st)
	}
}

func TestStoreFingerprintInvalidation(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testOptions(t, dir))
	for i := 0; i < 6; i++ {
		s.Put(testRecord(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Same dir, different selector fingerprint: 100% invalidation.
	opts := testOptions(t, dir)
	opts.Fingerprint = Fingerprint{0xAA}
	s2 := mustOpen(t, opts)
	if s2.Len() != 0 {
		t.Fatalf("store kept %d records across a fingerprint change", s2.Len())
	}
	st := s2.Stats()
	if st.Invalidations != 6 {
		t.Errorf("invalidations = %d, want 6", st.Invalidations)
	}
	if _, ok := s2.Get(testRecord(0).Key); ok {
		t.Error("stale record served after fingerprint change")
	}
	// The stale segments were compacted away on open.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Errorf("%d stale segment files survived the open-time compaction", len(segs))
	}
}

// TestStoreTornWriteSkipsSegment mirrors ckpt.Latest's corrupt-frame
// recovery: a segment truncated mid-frame (a torn write) must be skipped
// on open while every other segment keeps serving.
func TestStoreTornWriteSkipsSegment(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testOptions(t, dir))
	s.Put(testRecord(1))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Put(testRecord(2))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("have %d segments, want 2", len(segs))
	}
	// Tear the newest segment mid-frame.
	info, err := os.Stat(segs[1].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[1].path, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, testOptions(t, dir))
	if _, ok := s2.Get(testRecord(1).Key); !ok {
		t.Error("record from the intact segment was lost")
	}
	if _, ok := s2.Get(testRecord(2).Key); ok {
		t.Error("record from the torn segment was served")
	}
	st := s2.Stats()
	if st.CorruptSegs != 1 {
		t.Errorf("corrupt segments = %d, want 1", st.CorruptSegs)
	}
	// The torn file was deleted by the open-time compaction and the store
	// keeps accepting writes.
	s2.Put(testRecord(3))
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(testRecord(3).Key); !ok {
		t.Error("store stopped serving after recovering from a torn write")
	}
}

// TestStoreInjectedTornWrite drives the same recovery through the
// store.write fault point, the way crash-test exercises ckpt.write.
func TestStoreInjectedTornWrite(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, testOptions(t, dir))
	s.Put(testRecord(1))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	fault.Set("store.write", fault.Options{Mode: fault.Partial, Times: 1})
	defer fault.Reset()
	s.Put(testRecord(2))
	if err := s.Flush(); err == nil {
		t.Fatal("injected torn write reported no error")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, testOptions(t, dir))
	if _, ok := s2.Get(testRecord(1).Key); !ok {
		t.Error("intact segment lost after injected torn write")
	}
	if st := s2.Stats(); st.CorruptSegs != 1 {
		t.Errorf("corrupt segments = %d, want 1", st.CorruptSegs)
	}
}

func TestStoreCompactionMergesAndBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.CompactAfter = 100 // no auto-compaction; exercise Compact directly
	s := mustOpen(t, opts)
	for i := 0; i < 12; i++ {
		s.Put(testRecord(i))
		if err := s.Flush(); err != nil { // one segment per record
			t.Fatal(err)
		}
	}
	if s.Segments() != 12 {
		t.Fatalf("have %d segments, want 12", s.Segments())
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Segments() != 1 {
		t.Fatalf("after compaction: %d segments, want 1", s.Segments())
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("on disk after compaction: %d files, want 1", len(segs))
	}
	for i := 0; i < 12; i++ {
		if _, ok := s.Get(testRecord(i).Key); !ok {
			t.Fatalf("record %d lost in compaction", i)
		}
	}
	if st := s.Stats(); st.Compactions != 1 {
		t.Errorf("compactions = %d, want 1", st.Compactions)
	}
}

func TestStoreAdmissionEvictsLRUAndCompactionDropsEvicted(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.MaxEntries = 4
	opts.CompactAfter = 100
	s := mustOpen(t, opts)
	for i := 0; i < 8; i++ {
		s.Put(testRecord(i))
	}
	if s.Len() != 4 {
		t.Fatalf("index holds %d records, want 4", s.Len())
	}
	// Oldest four were evicted.
	for i := 0; i < 4; i++ {
		if _, ok := s.Get(testRecord(i).Key); ok {
			t.Errorf("evicted record %d still served", i)
		}
	}
	if st := s.Stats(); st.Evictions != 4 {
		t.Errorf("evictions = %d, want 4", st.Evictions)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// A reload sees only the admitted records: compaction dropped the
	// evicted ones from disk.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	opts2 := testOptions(t, dir)
	opts2.MaxEntries = 4
	s2 := mustOpen(t, opts2)
	if s2.Len() != 4 {
		t.Fatalf("reloaded %d records, want 4", s2.Len())
	}
	for i := 4; i < 8; i++ {
		if _, ok := s2.Get(testRecord(i).Key); !ok {
			t.Errorf("admitted record %d missing after reload", i)
		}
	}
}

func TestStoreDropInvalidates(t *testing.T) {
	s := mustOpen(t, testOptions(t, t.TempDir()))
	r := testRecord(1)
	s.Put(r)
	s.Drop(r.Key)
	if _, ok := s.Get(r.Key); ok {
		t.Error("dropped record still served")
	}
	if st := s.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	// The dropped record must not resurface via the pending queue.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Writes != 0 {
		t.Errorf("writes = %d, want 0 (dropped before flush)", st.Writes)
	}
}

func TestStoreBackgroundFlushLandsBatch(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.FlushEvery = 2
	s := mustOpen(t, opts)
	s.Put(testRecord(1))
	s.Put(testRecord(2)) // reaches FlushEvery: kicks the background flusher
	// Close joins the flusher, so afterwards the batch is durable either
	// via the background write or the final flush.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, testOptions(t, dir))
	if s2.Len() != 2 {
		t.Fatalf("reloaded %d records, want 2", s2.Len())
	}
}

func TestStoreClosedOps(t *testing.T) {
	s := mustOpen(t, testOptions(t, t.TempDir()))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush on closed store: %v, want ErrClosed", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Errorf("Compact on closed store: %v, want ErrClosed", err)
	}
	s.Put(testRecord(1)) // dropped, not panicking
	if s.Len() != 0 {
		t.Error("Put on closed store admitted a record")
	}
}

// TestStoreSegmentBytesDeterministic pins the reproducibility claim:
// flushing the same records yields bit-identical segment files, wherever
// the directory lives.
func TestStoreSegmentBytesDeterministic(t *testing.T) {
	write := func(dir string) []byte {
		opts := testOptions(t, dir)
		// Six records stay below FlushEvery, so the one segment is Close's:
		// at testOptions' 4 the background flusher could split the batch.
		opts.FlushEvery = 8
		s := mustOpen(t, opts)
		for i := 5; i >= 0; i-- { // insertion order must not matter
			s.Put(testRecord(i))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(dir)
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments: %v, err %v", segs, err)
		}
		b, err := os.ReadFile(segs[0].path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := write(filepath.Join(t.TempDir(), "a"))
	b := write(filepath.Join(t.TempDir(), "b"))
	if !bytes.Equal(a, b) {
		t.Error("same records produced different segment bytes")
	}
}

// TestStoreMemoryOnly pins the empty-Dir mode: it touches no file, keeps
// the same Get/Put/Drop and LRU behaviour as a persistent store, and queues
// nothing for writing however many records pass through it.
func TestStoreMemoryOnly(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	if err := os.Chdir(tmp); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	s, err := Open(Options{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		s.Put(testRecord(i))
	}
	s.Get(testRecord(2).Key) // refresh: 3 is now the coldest
	s.Put(testRecord(6))
	for i, want := range []bool{false, false, true, false, true, true, true} {
		r, ok := s.Get(testRecord(i).Key)
		if ok != want {
			t.Errorf("record %d live = %v, want %v", i, ok, want)
		} else if ok && !recordsEqual(r, testRecord(i)) {
			t.Errorf("record %d changed in the store", i)
		}
	}
	s.Drop(testRecord(6).Key)
	if _, ok := s.Get(testRecord(6).Key); ok {
		t.Error("dropped record still served")
	}
	st := s.Stats()
	if st.Evictions != 3 || st.Invalidations != 1 || st.Entries != 3 {
		t.Errorf("evictions/invalidations/entries = %d/%d/%d, want 3/1/3", st.Evictions, st.Invalidations, st.Entries)
	}

	for i := 0; i < 10000; i++ {
		s.Put(testRecord(i))
	}
	if st := s.Stats(); st.PendingWrites != 0 || st.Writes != 0 || st.Segments != 0 || st.Entries != 4 {
		t.Errorf("after 10000 Puts: %+v, want 4 entries and nothing pending, written or segmented", st)
	}
	if err := s.Flush(); err != nil {
		t.Errorf("Flush = %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Errorf("Compact = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
		t.Errorf("working directory after a memory-only store: %v, %v; want empty", ents, err)
	}
}
