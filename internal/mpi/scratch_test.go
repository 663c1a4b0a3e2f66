package mpi

import (
	"testing"

	"repro/internal/race"
)

// sameBuf reports whether two non-empty buffers share a backing array start.
func sameBuf(a, b []byte) bool { return &a[:1][0] == &b[:1][0] }

// withRank runs body on the single rank of a 1x1 world.
func withRank(t *testing.T, body func(*Rank)) {
	t.Helper()
	run(t, newWorld(t, 1, 1, nil), body)
}

func TestScratchBestFitReuse(t *testing.T) {
	withRank(t, func(r *Rank) {
		mid, small, big := r.Scratch(100), r.Scratch(50), r.Scratch(200)
		r.Release(mid, small, big)

		got := r.Scratch(40)
		if len(got) != 40 || !sameBuf(got, small) {
			t.Errorf("Scratch(40): len %d, best fit %v; want len 40 from the 50-byte buffer",
				len(got), sameBuf(got, small))
		}
		got = r.Scratch(150)
		if len(got) != 150 || !sameBuf(got, big) {
			t.Errorf("Scratch(150): len %d, best fit %v; want len 150 from the 200-byte buffer",
				len(got), sameBuf(got, big))
		}
		got = r.Scratch(300)
		if len(got) != 300 || sameBuf(got, mid) {
			t.Errorf("Scratch(300): len %d; want a fresh 300-byte buffer", len(got))
		}
		if len(r.scratch) != 1 || !sameBuf(r.scratch[0][:1], mid) {
			t.Errorf("free list holds %d buffers, want only the 100-byte one", len(r.scratch))
		}
	})
}

func TestScratchLenAndPoison(t *testing.T) {
	withRank(t, func(r *Rank) {
		for _, n := range []int{0, 1, 7, 64, 4096} {
			b := r.Scratch(n)
			if len(b) != n {
				t.Fatalf("Scratch(%d) has len %d", n, len(b))
			}
			for i := range b {
				b[i] = 0
			}
			r.Release(b)
			again := r.Scratch(n)
			if len(again) != n {
				t.Fatalf("reused Scratch(%d) has len %d", n, len(again))
			}
			if race.Enabled {
				for i, c := range again {
					if c != scratchPoison {
						t.Fatalf("race build: byte %d of reused Scratch(%d) is %#x, want poison %#x",
							i, n, c, scratchPoison)
					}
				}
			}
			r.Release(again)
		}
	})
}

func TestScratchReleaseIgnoresEmpty(t *testing.T) {
	withRank(t, func(r *Rank) {
		r.Release(nil)
		r.Release([]byte{}, nil)
		if len(r.scratch) != 0 {
			t.Fatalf("Release(nil) retained %d buffers", len(r.scratch))
		}
	})
}

func TestScratchRetentionBounded(t *testing.T) {
	withRank(t, func(r *Rank) {
		// Ever-larger releases: each one past the cap evicts the smallest.
		for n := 1; n <= maxScratch+2; n++ {
			r.Release(make([]byte, n*8))
		}
		// A release smaller than everything retained is dropped.
		r.Release(make([]byte, 1))
		if len(r.scratch) != maxScratch {
			t.Fatalf("free list holds %d buffers, want the cap %d", len(r.scratch), maxScratch)
		}
		for _, s := range r.scratch {
			if cap(s) <= 16 {
				t.Errorf("free list kept a %d-byte buffer over larger ones", cap(s))
			}
		}
	})
}

func TestScratchDoubleReleasePanicsUnderRace(t *testing.T) {
	if !race.Enabled {
		t.Skip("the double-release check runs in race builds only")
	}
	withRank(t, func(r *Rank) {
		b := r.Scratch(32)
		r.Release(b)
		defer func() {
			if recover() == nil {
				t.Error("second Release of the same buffer did not panic")
			}
		}()
		r.Release(b)
	})
}

// TestScratchAsyncHelperIsolation checks that an async helper, which starts
// as a copy of its parent rank, gets a free list of its own: the helper
// never draws a buffer the parent released, and buffers the helper releases
// never come back to the parent.
func TestScratchAsyncHelperIsolation(t *testing.T) {
	withRank(t, func(r *Rank) {
		a1, a2 := r.Scratch(64), r.Scratch(64)
		r.Release(a1, a2)
		held := r.Scratch(64) // leaves one parent buffer on the list
		var fromHelper []byte
		op := r.Async(func(ar *Rank) {
			h := ar.Scratch(64)
			if sameBuf(h, a1) || sameBuf(h, a2) {
				t.Error("helper's Scratch returned a buffer the parent released")
			}
			fromHelper = h
			ar.Release(h)
		})
		op.Wait(r)
		r.Release(held)
		for i := 0; i < 2; i++ {
			b := r.Scratch(64)
			if sameBuf(b, fromHelper) {
				t.Fatal("parent's Scratch returned a buffer the helper released")
			}
			if !sameBuf(b, a1) && !sameBuf(b, a2) {
				t.Errorf("parent draw %d is not one of its own released buffers", i)
			}
		}
	})
}
