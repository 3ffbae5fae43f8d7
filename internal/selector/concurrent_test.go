package selector

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"oarsmt/internal/grid"
)

// TestConcurrentSelectMatchesSerial runs SelectSteinerPoints and FSP from
// four goroutines on one shared selector, over layouts of several sizes in staggered orders, and requires every answer
// to equal the serial one bit for bit.
// Under -race it also proves inference only reads the shared selector.
func TestConcurrentSelectMatchesSerial(t *testing.T) {
	s := tinySelector(t)
	r := rand.New(rand.NewSource(11))
	type query struct {
		g    *grid.Graph
		pins []grid.VertexID
	}
	var qs []query
	var want [][]grid.VertexID
	var wantFSP [][]float64
	for _, sz := range [][3]int{{5, 5, 2}, {7, 4, 3}, {9, 9, 1}, {6, 8, 2}} {
		g, err := grid.NewUniform(sz[0], sz[1], sz[2], 2)
		if err != nil {
			t.Fatal(err)
		}
		var pins []grid.VertexID
		for _, v := range r.Perm(g.NumVertices())[:5] {
			pins = append(pins, grid.VertexID(v))
		}
		qs = append(qs, query{g, pins})
		want = append(want, s.SelectSteinerPoints(g, pins))
		wantFSP = append(wantFSP, s.FSP(g, pins))
	}

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for k := range qs {
					i := (k + w) % len(qs)
					if got := s.SelectSteinerPoints(qs[i].g, qs[i].pins); !slices.Equal(got, want[i]) {
						errs[w] = fmt.Errorf("layout %d: selected %v, serial %v", i, got, want[i])
						return
					}
					if !slices.Equal(s.FSP(qs[i].g, qs[i].pins), wantFSP[i]) {
						errs[w] = fmt.Errorf("layout %d: fsp differs from serial", i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", w, err)
		}
	}
}
