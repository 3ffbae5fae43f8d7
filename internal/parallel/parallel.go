// Package parallel provides the shared multicore execution layer of the
// repository: a GOMAXPROCS-sized worker pool with deterministic contiguous
// sharding and a fixed-order chunked reduction.
//
// Every hot kernel (tensor convolutions, normalisation, losses), the
// combinatorial-MCTS leaf evaluation and the episode loops of the training
// and experiment harnesses dispatch through this package, so one knob
// controls all concurrency: the pool is GOMAXPROCS wide unless a program
// calls SetWorkers (the -workers flag of oarsmt-train and oarsmt-bench);
// SetWorkers(1) forces the serial path for debugging.
//
// # Determinism
//
// All entry points are designed so results are bit-identical at every
// worker count, including the serial path:
//
//   - For splits [0, n) into at most Workers() contiguous shards. Callers
//     must make shards write disjoint outputs (or shard-private
//     accumulators merged afterwards in shard order); which goroutine runs
//     which shard then cannot matter.
//   - SumChunks always reduces over the same fixed-size chunks in the same
//     ascending order no matter how many workers computed the partial
//     sums, so floating-point rounding is independent of the worker count.
//
// # Nesting
//
// For may be called from inside a shard of an outer For (the MCTS leaf
// prefetch runs the network, whose convolutions are themselves sharded).
// The calling goroutine always participates in its own batch and claims
// every shard no helper picks up, so nested use cannot deadlock and the
// total concurrency stays bounded by the pool size.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the resolved worker count; 0 means "not resolved yet".
var workers atomic.Int32

// SetWorkers overrides the worker count for the whole process: n <= 1
// selects the serial path, larger values allow up to n concurrent shards
// per loop.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	workers.Store(int32(n))
}

// Workers returns the effective worker count (>= 1): the SetWorkers
// value, or GOMAXPROCS at the first call.
func Workers() int {
	if w := workers.Load(); w > 0 {
		return int(w)
	}
	workers.CompareAndSwap(0, int32(runtime.GOMAXPROCS(0)))
	return int(workers.Load())
}

// batch is one For call: a shard counter claimed lock-free by the caller
// and any helper workers that pick the batch up.
type batch struct {
	fn        func(shard, lo, hi int)
	n, shards int
	next      atomic.Int32
	done      sync.WaitGroup

	panicMu  sync.Mutex
	panicked any
	hasPanic bool
}

// taskCh broadcasts batches to the helper goroutines. Sends are
// non-blocking: when every helper is busy the caller simply runs the
// remaining shards itself, which both bounds concurrency and guarantees
// progress for nested calls.
var (
	poolOnce sync.Once
	taskCh   chan *batch
)

func ensurePool() {
	poolOnce.Do(func() {
		n := runtime.GOMAXPROCS(0) - 1
		if n < 1 {
			n = 1
		}
		taskCh = make(chan *batch, 4*n)
		for i := 0; i < n; i++ {
			go func() {
				for b := range taskCh {
					b.run()
				}
			}()
		}
	})
}

// run claims shards until none remain, recording the first panic so the
// caller can re-raise it.
func (b *batch) run() {
	for {
		s := int(b.next.Add(1)) - 1
		if s >= b.shards {
			return
		}
		b.runShard(s)
	}
}

func (b *batch) runShard(s int) {
	defer func() {
		if r := recover(); r != nil {
			b.panicMu.Lock()
			if !b.hasPanic {
				b.hasPanic = true
				b.panicked = r
			}
			b.panicMu.Unlock()
		}
		b.done.Done()
	}()
	lo := s * b.n / b.shards
	hi := (s + 1) * b.n / b.shards
	b.fn(s, lo, hi)
}

// For runs fn over the index range [0, n) split into at most Workers()
// contiguous shards: fn(shard, lo, hi) must process indices [lo, hi).
// Shards run concurrently (the caller participates), so fn must only write
// shard-disjoint or shard-private data. With one worker (or n <= 1) fn
// runs inline as fn(0, 0, n). A panic inside any shard is re-raised on the
// calling goroutine after all shards finish.
func For(n int, fn func(shard, lo, hi int)) {
	ForWith(Workers(), n, fn)
}

// ForWith is For with an explicit cap on the shard count, still bounded by
// the global pool; w <= 1 selects the serial path. Sharding depends only
// on min(w, n), so a fixed w gives identical shard boundaries on every
// machine.
func ForWith(w, n int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, 0, n)
		return
	}
	ensurePool()
	b := &batch{fn: fn, n: n, shards: w}
	b.done.Add(w)
	for i := 0; i < w-1; i++ {
		select {
		case taskCh <- b:
		default:
			// All helpers busy; the caller will run the leftover shards.
		}
	}
	b.run()
	b.done.Wait()
	if b.hasPanic {
		panic(b.panicked)
	}
}

// minShardWork is the per-shard work floor used by ShardsForWork, in
// abstract work units (the tensor kernels pass multiply-add counts); 0
// means "use the default".
var minShardWork atomic.Int64

// defaultMinShardWork is tuned so one shard amortizes the pool's dispatch
// cost (two atomic ops plus a channel send per helper) at the roughly
// 1-2 multiply-adds/ns the direct kernels sustain: a shard below ~256k
// MACs finishes in the same order of magnitude as waking a helper.
const defaultMinShardWork = 1 << 18

// MinShardWork returns the current per-shard work floor.
func MinShardWork() int {
	if v := minShardWork.Load(); v > 0 {
		return int(v)
	}
	return defaultMinShardWork
}

// SetMinShardWork overrides the per-shard work floor and returns the
// previous value; n <= 0 restores the default. Like the worker count it
// only moves the serial/parallel cutover, never results — tests set it to
// 1 to force the sharded paths on tiny shapes.
func SetMinShardWork(n int) int {
	prev := MinShardWork()
	if n <= 0 {
		minShardWork.Store(0)
	} else {
		minShardWork.Store(int64(n))
	}
	return prev
}

// ShardsForWork returns how many shards a kernel with the given total work
// estimate should split its n independent units into: enough workers that
// every shard still clears MinShardWork, never more than Workers() or n,
// and 1 (the inline serial path) whenever the whole call is under twice
// the floor. Shard counts depend only on (work, n, Workers(),
// MinShardWork), so a fixed configuration shards identically everywhere.
func ShardsForWork(work, n int) int {
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 || n <= 1 {
		return 1
	}
	min := MinShardWork()
	if work < 2*min {
		return 1
	}
	if s := work / min; s < w {
		w = s
	}
	return w
}

// ForWork is For with the shard count sized by a work estimate instead of
// the raw worker count: fn(shard, lo, hi) runs over [0, n) split into
// ShardsForWork(work, n) contiguous shards, inline when that is 1. The
// same determinism contract as For applies: shards must write disjoint
// outputs, and results are bit-identical at any worker count.
func ForWork(work, n int, fn func(shard, lo, hi int)) {
	ForWith(ShardsForWork(work, n), n, fn)
}

// sumChunk is the fixed reduction granularity of SumChunks. It never
// changes with the worker count, so the addition order — chunk-internal
// sums first, then chunk sums in ascending order — is an invariant of the
// data alone.
const sumChunk = 8192

// SumChunks computes a deterministic sum over n items: partial(lo, hi)
// must return the sequential sum of items [lo, hi). The range is split
// into fixed 8192-item chunks whose partial sums are computed in parallel
// and merged in ascending chunk order, so the result is bit-identical at
// every worker count (including serial).
func SumChunks(n int, partial func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	nc := (n + sumChunk - 1) / sumChunk
	if nc == 1 {
		return partial(0, n)
	}
	sums := make([]float64, nc)
	For(nc, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			end := (c + 1) * sumChunk
			if end > n {
				end = n
			}
			sums[c] = partial(c*sumChunk, end)
		}
	})
	total := 0.0
	for _, s := range sums {
		total += s
	}
	return total
}
