package hf

import (
	"math"
	"testing"

	"repro/internal/basis"
	"repro/internal/linalg"
)

// The blocked (compressed, symmetry-folded) Fock build must agree with
// the dense-tensor build on an arbitrary symmetric density.
func TestBlockedFockMatchesDense(t *testing.T) {
	bs, err := basis.STO3G(basis.Water())
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewBlockedStore(bs, 1e-12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if store.Blocks() == 0 {
		t.Fatal("empty store")
	}
	if store.CompressedBytes >= store.RawBytes {
		t.Fatalf("store did not compress: %d vs %d", store.CompressedBytes, store.RawBytes)
	}
	n := bs.NBF()
	// Arbitrary symmetric density.
	D := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := math.Sin(float64(i*7+j*3)) * 0.3
			D.Set(i, j, v)
			D.Set(j, i, v)
		}
	}
	H := linalg.NewMatrix(n, n) // zero core: isolate G[D]
	blocked, err := store.Fock(H, D)
	if err != nil {
		t.Fatal(err)
	}
	eris, err := (&MemorySource{BS: bs}).ERIs()
	if err != nil {
		t.Fatal(err)
	}
	dense := fock(H, D, eris, n)
	if diff := linalg.MaxAbsDiff(blocked, dense); diff > 1e-9 {
		t.Fatalf("blocked vs dense Fock differ by %g", diff)
	}
}

// End-to-end: SCF on the blocked compressed store converges to the
// same water energy as the dense path.
func TestSCFBlockedWater(t *testing.T) {
	bs, err := basis.STO3G(basis.Water())
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewBlockedStore(bs, 1e-10, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SCFBlocked(bs, 0, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("blocked SCF did not converge")
	}
	dense, err := SCF(bs, 0, &MemorySource{BS: bs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Energy-dense.Energy) > 1e-6 {
		t.Fatalf("blocked %.9f vs dense %.9f", res.Energy, dense.Energy)
	}
}

func TestSCFBlockedValidation(t *testing.T) {
	bs, err := basis.STO3G(basis.Water())
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewBlockedStore(bs, 1e-10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SCFBlocked(bs, 1, store, Options{}); err == nil {
		t.Error("odd electron count accepted")
	}
	if _, err := store.Fock(linalg.NewMatrix(2, 2), linalg.NewMatrix(2, 2)); err == nil {
		t.Error("wrong matrix size accepted")
	}
}
