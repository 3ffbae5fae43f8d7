package tensor

import "fmt"

// Arena is a bump allocator for tensor storage. Inference runs dozens of
// intermediate tensors per forward pass; allocating them from a reused
// arena instead of the heap drops the allocation count of a pass to near
// zero and keeps the working set cache-resident across calls.
//
// Ownership rules (see DESIGN.md "Tensor kernels"):
//
//   - An Arena is used by one goroutine at a time; it has no locking.
//     Handing it to another goroutine needs a synchronising hand-off (the
//     selector's mutex-guarded free list of inference arenas is one).
//   - Reset recycles every tensor previously allocated from the arena.
//     The owner decides the reuse boundary: nn.UNet3D resets its attached
//     training arena at the start of each Forward, so activations stay
//     valid exactly from one forward through the matching backward; the
//     inference pass (Infer) takes a caller-owned arena and leaves its
//     reset to the caller.
//   - Data that must outlive the boundary (returned logits, parameter
//     gradients) is copied to the heap before the next reset.
//
// A nil *Arena is valid everywhere and falls back to plain heap
// allocation, so arena-aware code needs no branches.
type Arena struct {
	// bufs is a stack of exponentially-growing backing arrays, retained
	// across Reset, so a warmed-up arena allocates without touching the
	// heap at all.
	bufs [][]float64
	cur  int // slab currently bump-allocated from
	off  int // next free offset in bufs[cur]
}

// arenaMinSlab is the smallest slab size; doubling from here reaches any
// realistic activation volume in a few slabs.
const arenaMinSlab = 1 << 12

func (a *Arena) alloc(n int) []float64 {
	for a.cur < len(a.bufs) {
		if buf := a.bufs[a.cur]; a.off+n <= len(buf) {
			out := buf[a.off : a.off+n : a.off+n]
			a.off += n
			return out
		}
		a.cur++
		a.off = 0
	}
	size := arenaMinSlab
	if len(a.bufs) > 0 {
		size = 2 * len(a.bufs[len(a.bufs)-1])
	}
	if size < n {
		size = n
	}
	a.bufs = append(a.bufs, make([]float64, size))
	a.cur = len(a.bufs) - 1
	a.off = n
	return a.bufs[a.cur][:n:n]
}

// NewArena returns an empty arena; slabs are grown on demand and retained
// across Reset.
func NewArena() *Arena { return &Arena{} }

// Reset recycles all previous allocations. Every tensor handed out since
// the last Reset becomes invalid: its data will be overwritten by
// subsequent allocations.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.cur, a.off = 0, 0
}

// New allocates a zeroed tensor from the arena; a nil receiver falls back
// to tensor.New (the heap).
func (a *Arena) New(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	d := a.alloc(checkShape(shape))
	clear(d)
	return &Tensor{Shape: append([]int(nil), shape...), Data: d}
}

// checkShape validates a shape and returns its volume.
func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in %v", d, shape))
		}
		n *= d
	}
	return n
}
