// Package models embeds the pretrained Steiner-point selector shipped with
// the repository. The model was trained with cmd/oarsmt-train (the
// combinatorial-MCTS pipeline at CPU scale):
//
//	oarsmt-train -stages 8 -hv 8,12 -layers 2 -layouts 3 -alpha 16 \
//	    -base 6 -depth 2 -batch 32 -epochs 2 -lr 2e-3 -seed 1 -curriculum 4
//
// Retrain and overwrite selector.gob to ship a stronger one (`make train`
// runs a longer schedule).
package models

import (
	"bytes"
	_ "embed"
	"sync"

	"oarsmt/internal/selector"
)

//go:embed selector.gob
var selectorGob []byte

var (
	once       sync.Once
	pretrained *selector.Selector
	loadErr    error
)

// Pretrained returns the embedded trained selector. The model is decoded
// once and shared; inference through it is safe from any number of
// goroutines (see selector.Selector), but training it is not, so callers
// that train should take a private copy with New.
func Pretrained() (*selector.Selector, error) {
	once.Do(func() {
		pretrained, loadErr = selector.Load(bytes.NewReader(selectorGob))
	})
	return pretrained, loadErr
}

// New decodes a fresh private copy of the embedded model.
func New() (*selector.Selector, error) {
	return selector.Load(bytes.NewReader(selectorGob))
}
