package selector

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"oarsmt/internal/nn"
)

func fpSelector(t *testing.T, seed int64) *Selector {
	t.Helper()
	s, err := NewRandom(rand.New(rand.NewSource(seed)),
		nn.UNetConfig{InChannels: NumFeatures, Base: 2, Depth: 1, Kernel: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFingerprintIdentifiesWeights pins the properties the route store
// depends on: the fingerprint is a pure function of the weights (same seed
// twice, and a gob round trip, fingerprint identically), and any weight
// change — a retrained model — changes it.
func TestFingerprintIdentifiesWeights(t *testing.T) {
	a, b := fpSelector(t, 1), fpSelector(t, 1)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical weights produced different fingerprints")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint is not deterministic across calls")
	}
	if a.Fingerprint() == fpSelector(t, 2).Fingerprint() {
		t.Fatal("different weights produced the same fingerprint")
	}

	// Save/Load round trip (a daemon restart loading the model file).
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint changed across a save/load round trip")
	}

	// A single-weight nudge — the smallest possible retrain — must change it.
	mutated := fpSelector(t, 1)
	mutated.Net.Params()[0].W.Data[0] += 1e-9
	if mutated.Fingerprint() == a.Fingerprint() {
		t.Fatal("weight change did not change the fingerprint")
	}
}

// TestFingerprintPinned pins one fingerprint value, so a change to the
// domain tag or the hashed fields is a deliberate fixture edit: every
// persisted route store keys its records by this hash.
func TestFingerprintPinned(t *testing.T) {
	const want = "622fe61c510d249872b1982290dab54d679c3792edf1ef44c119f07d22bf9b03"
	if got := fmt.Sprintf("%x", fpSelector(t, 1).Fingerprint()); got != want {
		t.Fatalf("fingerprint %s, pinned %s", got, want)
	}
}
