package parallel

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

// withWorkers runs fn under a fixed worker count and restores the previous
// setting afterwards.
func withWorkers(t *testing.T, w int, fn func()) {
	t.Helper()
	prev := Workers()
	SetWorkers(w)
	defer SetWorkers(prev)
	fn()
}

func TestForCoversRangeOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 7, 16} {
		withWorkers(t, w, func() {
			const n = 1000
			hits := make([]int32, n)
			For(n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d: index %d visited %d times", w, i, h)
				}
			}
		})
	}
}

func TestForShardBoundsContiguousAndOrdered(t *testing.T) {
	withWorkers(t, 4, func() {
		const n = 10
		los := make([]int, 4)
		his := make([]int, 4)
		For(n, func(shard, lo, hi int) {
			los[shard], his[shard] = lo, hi
		})
		if los[0] != 0 || his[3] != n {
			t.Fatalf("shards do not span the range: lo=%v hi=%v", los, his)
		}
		for s := 1; s < 4; s++ {
			if los[s] != his[s-1] {
				t.Fatalf("shard %d not contiguous: lo=%v hi=%v", s, los, his)
			}
		}
	})
}

func TestForEmptyAndTinyRanges(t *testing.T) {
	withWorkers(t, 8, func() {
		calls := 0
		For(0, func(_, lo, hi int) { calls++ })
		if calls != 0 {
			t.Fatalf("For(0) ran %d shards", calls)
		}
		For(1, func(shard, lo, hi int) {
			calls++
			if shard != 0 || lo != 0 || hi != 1 {
				t.Fatalf("For(1) shard=%d lo=%d hi=%d", shard, lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("For(1) ran %d shards", calls)
		}
	})
}

func TestForNested(t *testing.T) {
	withWorkers(t, 4, func() {
		const outer, inner = 8, 64
		var total atomic.Int64
		For(outer, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				For(inner, func(_, ilo, ihi int) {
					total.Add(int64(ihi - ilo))
				})
			}
		})
		if got := total.Load(); got != outer*inner {
			t.Fatalf("nested For covered %d of %d", got, outer*inner)
		}
	})
}

func TestForPanicPropagates(t *testing.T) {
	withWorkers(t, 4, func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		For(100, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if i == 57 {
					panic("boom")
				}
			}
		})
		t.Fatal("For returned after panic")
	})
}

func TestForWithCapsShards(t *testing.T) {
	withWorkers(t, 16, func() {
		maxShard := int32(-1)
		ForWith(3, 100, func(shard, lo, hi int) {
			for {
				cur := atomic.LoadInt32(&maxShard)
				if int32(shard) <= cur || atomic.CompareAndSwapInt32(&maxShard, cur, int32(shard)) {
					break
				}
			}
		})
		if maxShard > 2 {
			t.Fatalf("ForWith(3) used shard %d", maxShard)
		}
	})
}

func TestSumChunksBitIdenticalAcrossWorkerCounts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 3*sumChunk + 1234
	data := make([]float64, n)
	for i := range data {
		data[i] = r.NormFloat64() * float64(i%13)
	}
	partial := func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += data[i]
		}
		return s
	}
	var ref float64
	withWorkers(t, 1, func() { ref = SumChunks(n, partial) })
	for _, w := range []int{2, 3, 5, 8} {
		withWorkers(t, w, func() {
			if got := SumChunks(n, partial); got != ref {
				t.Fatalf("workers=%d: sum %v != serial %v", w, got, ref)
			}
		})
	}
}

func TestSumChunksSmallRange(t *testing.T) {
	got := SumChunks(3, func(lo, hi int) float64 { return float64(hi - lo) })
	if got != 3 {
		t.Fatalf("SumChunks(3) = %v", got)
	}
	if s := SumChunks(0, func(lo, hi int) float64 { t.Fatal("called"); return 0 }); s != 0 {
		t.Fatalf("SumChunks(0) = %v", s)
	}
}

func TestSetWorkersClampsToOne(t *testing.T) {
	prev := Workers()
	defer SetWorkers(prev)
	SetWorkers(-5)
	if w := Workers(); w != 1 {
		t.Fatalf("Workers() = %d after SetWorkers(-5)", w)
	}
}

func TestShardsForWork(t *testing.T) {
	prevW := Workers()
	prevMin := SetMinShardWork(100)
	defer func() {
		SetWorkers(prevW)
		SetMinShardWork(prevMin)
	}()
	SetWorkers(8)

	cases := []struct {
		work, n, want int
	}{
		{work: 50, n: 8, want: 1},    // under the floor: inline serial
		{work: 199, n: 8, want: 1},   // under 2x the floor: still serial
		{work: 200, n: 8, want: 2},   // exactly 2x: two full shards
		{work: 450, n: 8, want: 4},   // work/min shards, below Workers()
		{work: 10000, n: 8, want: 8}, // plenty of work: all workers
		{work: 10000, n: 3, want: 3}, // capped by unit count
		{work: 10000, n: 1, want: 1}, // a single unit cannot split
		{work: 10000, n: 0, want: 1}, // nothing to do
	}
	for _, c := range cases {
		if got := ShardsForWork(c.work, c.n); got != c.want {
			t.Errorf("ShardsForWork(%d, %d) = %d, want %d", c.work, c.n, got, c.want)
		}
	}

	SetWorkers(1)
	if got := ShardsForWork(1<<30, 1<<20); got != 1 {
		t.Errorf("ShardsForWork with 1 worker = %d, want 1", got)
	}
}

func TestSetMinShardWork(t *testing.T) {
	prev := SetMinShardWork(42)
	defer SetMinShardWork(prev)
	if got := MinShardWork(); got != 42 {
		t.Fatalf("MinShardWork() = %d after SetMinShardWork(42)", got)
	}
	if p := SetMinShardWork(0); p != 42 {
		t.Fatalf("SetMinShardWork returned prev %d, want 42", p)
	}
	if got := MinShardWork(); got != defaultMinShardWork {
		t.Fatalf("MinShardWork() = %d after reset, want default %d", got, defaultMinShardWork)
	}
}
