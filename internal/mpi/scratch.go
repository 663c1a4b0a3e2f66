package mpi

import "repro/internal/race"

// maxScratch bounds how many released buffers a rank retains. The deepest
// baseline composition holds four temporaries at once (ReduceHier's leader
// path), so eight covers every collective without letting a long run of
// ever-larger requests pin an unbounded list.
const maxScratch = 8

// scratchPoison is the byte race-enabled builds fill every handed-out
// scratch buffer with, so a site that reads a byte it never wrote computes
// a wrong result instead of silently reading a zero or a stale value. Eight
// of them make a float64 NaN, which every reduction operator propagates (a
// pattern like 0xA5 reads as -1e-127 and vanishes into any sum).
const scratchPoison = 0xFF

// Scratch returns an n-byte temporary buffer private to the rank: the
// smallest retained buffer whose capacity covers n, resliced to n, or a
// fresh one. Its contents are unspecified (race-enabled builds poison
// them), so the caller must write every byte before reading it.
//
// Hand the buffer back with Release once the operation that used it has
// completed normally — after the last Wait of any request that refers to
// it. A scratch buffer must never be posted to the PiP board (peers read
// posted buffers directly, outside any request), and a collective that
// unwinds with a failure leaves its buffers to the garbage collector, so a
// buffer a stale envelope still points at is never handed out again.
func (r *Rank) Scratch(n int) []byte {
	best := -1
	for i, b := range r.scratch {
		if cap(b) >= n && (best < 0 || cap(b) < cap(r.scratch[best])) {
			best = i
		}
	}
	var buf []byte
	if best < 0 {
		buf = make([]byte, n)
	} else {
		buf = r.scratch[best][:n]
		last := len(r.scratch) - 1
		r.scratch[best] = r.scratch[last]
		r.scratch[last] = nil
		r.scratch = r.scratch[:last]
	}
	if race.Enabled {
		for i := range buf {
			buf[i] = scratchPoison
		}
	}
	return buf
}

// Release returns buffers obtained from Scratch to the rank's free list.
// Nil and zero-capacity buffers are ignored. When the list is full, a
// released buffer replaces the smallest retained one if it is larger and
// is dropped otherwise.
func (r *Rank) Release(bufs ...[]byte) {
	for _, b := range bufs {
		if cap(b) == 0 {
			continue
		}
		b = b[:0]
		if race.Enabled {
			r.checkNotRetained(b)
		}
		if len(r.scratch) < maxScratch {
			r.scratch = append(r.scratch, b)
			continue
		}
		small := 0
		for i, s := range r.scratch {
			if cap(s) < cap(r.scratch[small]) {
				small = i
			}
		}
		if cap(b) > cap(r.scratch[small]) {
			r.scratch[small] = b
		}
	}
}

// checkNotRetained panics on a double release: the same backing array
// twice on the free list would be handed out to two owners at once.
func (r *Rank) checkNotRetained(b []byte) {
	for _, s := range r.scratch {
		if &s[:1][0] == &b[:1][0] {
			panic("mpi: scratch buffer released twice")
		}
	}
}
