package coll

import (
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nums"
	"repro/internal/race"
)

// totalAlloc returns the cumulative bytes allocated on the heap.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// TestScratchAllocPerIteration pins the effect of the rank scratch free
// lists on the baseline collectives: once the first iteration has filled
// every rank's free list, a repeated collective allocates less than one
// chunk per rank. Temporary buffers made fresh per call cost several
// chunks per rank (a node slab on every rank alone is ppn chunks).
func TestScratchAllocPerIteration(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation ceilings are pinned for non-race builds only")
	}
	const nodes, ppn, chunk, iters = 4, 8, 4 << 10, 5
	const size = nodes * ppn
	cases := []struct {
		name string
		op   func(r *mpi.Rank, small, large, out []byte)
	}{
		{"ScatterHier", func(r *mpi.Rank, _, large, out []byte) {
			ScatterHier(World(r), 0, large, out[:chunk])
		}},
		{"AllgatherHier", func(r *mpi.Rank, small, _, out []byte) {
			AllgatherHier(World(r), small, out, 256<<10)
		}},
		{"AllreduceHier", func(r *mpi.Rank, small, _, out []byte) {
			AllreduceHier(World(r), small, out[:chunk], nums.Sum, 16<<10)
		}},
		{"AllreduceRabenseifner", func(r *mpi.Rank, small, _, out []byte) {
			AllreduceRabenseifner(World(r), small, out[:chunk], nums.Sum)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var marks [iters + 1]uint64
			runWorld(t, nodes, ppn, func(r *mpi.Rank) {
				small := make([]byte, chunk)
				nums.Fill(small, r.Rank())
				large := make([]byte, size*chunk)
				nums.Fill(large, size)
				out := make([]byte, size*chunk)
				for i := 0; i <= iters; i++ {
					// Rank 0 reads the counter while every rank is parked
					// between two barriers, so each delta is one iteration.
					r.HarnessBarrier()
					if r.Rank() == 0 {
						marks[i] = totalAlloc()
					}
					r.HarnessBarrier()
					if i < iters {
						tc.op(r, small, large, out)
					}
				}
			})
			for i := 1; i < iters; i++ {
				delta := marks[i+1] - marks[i]
				t.Logf("iteration %d: %d bytes", i+1, delta)
				if delta >= size*chunk {
					t.Errorf("iteration %d allocated %d bytes, want < %d (size x chunk)",
						i+1, delta, size*chunk)
				}
			}
		})
	}
}
