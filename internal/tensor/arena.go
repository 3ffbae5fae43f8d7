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
//     inference passes (Infer, Forward32) take a caller-owned arena and
//     leave its reset to the caller.
//   - Data that must outlive the boundary (returned logits, parameter
//     gradients) is copied to the heap before the next reset.
//
// A nil *Arena is valid everywhere and falls back to plain heap
// allocation, so arena-aware code needs no branches.
type Arena struct {
	f64 slabs[float64]
	f32 slabs[float32]
}

// slabs is one element type's stack of exponentially-growing backing
// arrays. Slabs are retained across Reset, so a warmed-up arena allocates
// without touching the heap at all.
type slabs[F float32 | float64] struct {
	bufs []([]F)
	cur  int // slab currently bump-allocated from
	off  int // next free offset in bufs[cur]
}

// arenaMinSlab is the smallest slab size; doubling from here reaches any
// realistic activation volume in a few slabs.
const arenaMinSlab = 1 << 12

func (s *slabs[F]) alloc(n int) []F {
	for s.cur < len(s.bufs) {
		if buf := s.bufs[s.cur]; s.off+n <= len(buf) {
			out := buf[s.off : s.off+n : s.off+n]
			s.off += n
			return out
		}
		s.cur++
		s.off = 0
	}
	size := arenaMinSlab
	if len(s.bufs) > 0 {
		size = 2 * len(s.bufs[len(s.bufs)-1])
	}
	if size < n {
		size = n
	}
	s.bufs = append(s.bufs, make([]F, size))
	s.cur = len(s.bufs) - 1
	s.off = n
	return s.bufs[s.cur][:n:n]
}

func (s *slabs[F]) reset() { s.cur, s.off = 0, 0 }

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
	a.f64.reset()
	a.f32.reset()
}

// New allocates a zeroed float64 tensor from the arena; a nil receiver
// falls back to tensor.New (the heap).
func (a *Arena) New(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	d := a.f64.alloc(checkShape(shape))
	clear(d)
	return &Tensor{Shape: append([]int(nil), shape...), Data: d}
}

// New32 allocates a zeroed float32 tensor from the arena; a nil receiver
// allocates from the heap.
func (a *Arena) New32(shape ...int) *T32 {
	n := checkShape(shape)
	if a == nil {
		return &T32{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
	}
	d := a.f32.alloc(n)
	clear(d)
	return &T32{Shape: append([]int(nil), shape...), Data: d}
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

// T32 is a dense float32 tensor in row-major order: the storage type of
// the optional float32 inference mode. It is forward-only — training and
// gradients stay float64 — so it carries none of Tensor's autodiff
// surface.
type T32 struct {
	Shape []int
	Data  []float32
}

// Len returns the number of elements.
func (t *T32) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *T32) Rank() int { return len(t.Shape) }

// Dim returns dimension i.
func (t *T32) Dim(i int) int { return t.Shape[i] }

// Reshape returns a view of the same data with a new shape of equal
// volume.
func (t *T32) Reshape(shape ...int) *T32 {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes volume", t.Shape, shape))
	}
	return &T32{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Convert32 copies a float64 tensor into a fresh heap float32 tensor.
// The float32 inference mode uses it once per parameter at enable time.
func Convert32(t *Tensor) *T32 {
	if t == nil {
		return nil
	}
	out := &T32{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	for i, v := range t.Data {
		out.Data[i] = float32(v)
	}
	return out
}
