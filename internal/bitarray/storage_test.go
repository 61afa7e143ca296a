package bitarray

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestSparseRoundTripEqualsDense: for random contents — dense, sparse,
// empty, and every group width — scattering a sparse snapshot over
// storage full of other bits reproduces the dense original exactly.
func TestSparseRoundTripEqualsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, per := range []int{1, 2, 8} {
		for _, fill := range []float64{0, 0.02, 0.5, 1} {
			dense := make([]uint64, 64*per)
			for g := 0; g < len(dense)/per; g++ {
				if rng.Float64() < fill {
					// One non-zero word suffices to keep the group.
					dense[g*per+rng.Intn(per)] = rng.Uint64() | 1
				}
			}
			s := Sparsify(dense, per)
			dst := make([]uint64, len(dense))
			for i := range dst {
				dst[i] = ^uint64(0)
			}
			s.Scatter(dst)
			if !slices.Equal(dst, dense) {
				t.Fatalf("per=%d fill=%v: scatter differs from the dense original", per, fill)
			}
			if fill == 0 && s.SizeBytes() != 0 {
				t.Errorf("per=%d: an all-zero snapshot retains %d bytes", per, s.SizeBytes())
			}
		}
	}
}

func TestSparseSnapshotMatchesSnapshot(t *testing.T) {
	a := New("a", 32, 100)
	a.WriteWord(3, 1, 0xdead)
	a.WriteWord(31, 0, 1)
	dense, sparse := a.Snapshot(), a.SnapshotSparse()
	if want := 4*2 + 8*2*2; sparse.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want %d (two 2-word entries)", sparse.SizeBytes(), want)
	}
	a.WriteWord(7, 0, 99) // must be cleared by the restore
	a.RestoreSparse(sparse)
	if !slices.Equal(a.Snapshot(), dense) {
		t.Fatal("RestoreSparse differs from the dense snapshot")
	}
	defer func() {
		if recover() == nil {
			t.Error("restoring a snapshot of another geometry did not panic")
		}
	}()
	New("b", 32, 64).RestoreSparse(sparse)
}

// TestPeekIsNotAnAccess: looking at an entry moves no counter and leaves
// a live fault live.
func TestPeekIsNotAnAccess(t *testing.T) {
	a := New("a", 4, 128)
	a.WriteWord(2, 1, 0xabc)
	a.Arm(Fault{Kind: Transient, Entry: 2, Bit: 64})
	a.Tick(0)
	r, w, or, ow := a.Reads(), a.Writes(), a.ObservedReads(), a.ObservedWrites()
	if got := a.Peek(2); len(got) != 2 || got[1] != 0xabc^1 {
		t.Fatalf("Peek = %#x, want the flipped stored words", got)
	}
	if a.Reads() != r || a.Writes() != w || a.ObservedReads() != or || a.ObservedWrites() != ow {
		t.Error("Peek moved an access counter")
	}
	if st := a.FaultStatus(); st != StatusLive {
		t.Errorf("fault is %v after Peek, want live", st)
	}
	if f, consumed := a.FaultAt(0); a.FaultCount() != 1 || f.Entry != 2 || consumed {
		t.Errorf("FaultAt(0) = %+v consumed=%v", f, consumed)
	}
	if !a.FaultOn(2) || a.FaultOn(1) {
		t.Error("FaultOn does not name the faulted entry")
	}
	a.ReadWord(2, 1)
	if _, consumed := a.FaultAt(0); !consumed {
		t.Error("a read of the flipped word did not consume the fault")
	}
}

// TestRecycledStorageIsZero: storage released full of ones comes back
// from New all zero, whether or not the pool handed the same words out.
func TestRecycledStorageIsZero(t *testing.T) {
	for round := 0; round < 8; round++ {
		a := New("a", 300, 64)
		for e := 0; e < a.Entries(); e++ {
			if a.Peek(e)[0] != 0 {
				t.Fatalf("round %d: New returned non-zero storage at entry %d", round, e)
			}
			a.WriteWord(e, 0, ^uint64(0))
		}
		a.Release()
		a.Release() // idempotent
	}
}

func TestUseAfterReleasePanics(t *testing.T) {
	a := New("a", 8, 64)
	a.Release()
	defer func() {
		if recover() == nil {
			t.Error("reading a released array did not panic")
		}
	}()
	a.ReadWord(0, 0)
}

// TestLiveArraysNeverShareStorage boots, scribbles on, checks and
// releases arrays of one length from many goroutines; run under -race
// it fails if the pool ever hands one backing slice to two live arrays.
func TestLiveArraysNeverShareStorage(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				a := New("a", 128, 64)
				for e := 0; e < a.Entries(); e++ {
					a.WriteWord(e, 0, id)
				}
				for e := 0; e < a.Entries(); e++ {
					if v := a.ReadWord(e, 0); v != id {
						t.Errorf("goroutine %d read %d from its own array", id, v)
						return
					}
				}
				a.Release()
			}
		}(uint64(g + 1))
	}
	wg.Wait()
}
