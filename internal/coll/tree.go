package coll

import (
	"fmt"

	"repro/internal/nums"
)

// Bcast broadcasts buf (same length everywhere) from view index root using
// the binomial tree algorithm, the conventional MPI choice the paper's
// Section III-A contrasts with. Entry point for world use; hierarchical
// compositions call bcastTree with an explicit tag window.
func Bcast(v View, root int, buf []byte) {
	bcastTree(v, root, buf, v.tagWindow())
}

// bcastTree is the binomial broadcast over a view.
func bcastTree(v View, root int, buf []byte, tag int) {
	size := v.Size()
	checkRoot("bcast", root, size)
	if size == 1 {
		return
	}
	rel := (v.me - root + size) % size
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			src := (v.me - mask + size) % size
			v.Recv(src, tag, buf)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < size {
			dst := (v.me + mask) % size
			v.Send(dst, tag, buf)
		}
		mask >>= 1
	}
}

// Scatter distributes equal chunks of send (root only) so that view index i
// receives send[i*chunk:(i+1)*chunk] into recv. Binomial tree: the root
// sends subtree-sized blocks down, halving at each level.
func Scatter(v View, root int, send, recv []byte) {
	scatterTree(v, root, send, recv, v.tagWindow())
}

func scatterTree(v View, root int, send, recv []byte, tag int) {
	size := v.Size()
	checkRoot("scatter", root, size)
	chunk := len(recv)
	if v.me == root {
		checkChunk("scatter", size, chunk, len(send))
	}
	if size == 1 {
		v.memcpy(recv, send)
		return
	}
	rel := (v.me - root + size) % size

	// tmp holds this process's subtree data in relative-rank order; it is
	// a scratch buffer everywhere except at root 0, which reads send in
	// place.
	var tmp []byte
	cur := 0
	if v.me == root {
		if root == 0 {
			tmp = send // read-only below; sends snapshot as needed
		} else {
			// Rotate so relative rank 0's chunk comes first.
			tmp = v.r.Scratch(len(send))
			v.memcpy(tmp[:len(send)-root*chunk], send[root*chunk:])
			v.memcpy(tmp[len(send)-root*chunk:], send[:root*chunk])
		}
		cur = size * chunk
	} else {
		mask := 1
		for mask < size {
			if rel&mask != 0 {
				src := (v.me - mask + size) % size
				want := mask
				if size-rel < want {
					want = size - rel
				}
				tmp = v.r.Scratch(want * chunk)
				cur = v.Recv(src, tag+maskLog2(mask), tmp)
				break
			}
			mask <<= 1
		}
	}

	// Forward phase: peel off the upper halves of the held block.
	mask := nextPow2(size) >> 1
	for mask > 0 {
		if rel&(mask-1) == 0 && rel+mask < size && cur > mask*chunk {
			dst := (v.me + mask) % size
			v.Send(dst, tag+maskLog2(mask), tmp[mask*chunk:cur])
			cur = mask * chunk
		}
		mask >>= 1
	}
	v.memcpy(recv, tmp[:chunk])
	if v.me != root || root != 0 {
		v.r.Release(tmp)
	}
}

// Gather collects each view index i's send chunk into recv (root only) at
// offset i*chunk, via the binomial tree (the mirror image of Scatter).
func Gather(v View, root int, send, recv []byte) {
	gatherTree(v, root, send, recv, v.tagWindow())
}

func gatherTree(v View, root int, send, recv []byte, tag int) {
	size := v.Size()
	checkRoot("gather", root, size)
	chunk := len(send)
	if v.me == root {
		checkChunk("gather", size, chunk, len(recv))
	}
	if size == 1 {
		v.memcpy(recv, send)
		return
	}
	rel := (v.me - root + size) % size

	subtree := nextPow2(size) // upper bound; trimmed by size-rel below
	if size-rel < subtree {
		subtree = size - rel
	}
	tmp := v.r.Scratch(subtree * chunk)
	v.memcpy(tmp[:chunk], send)
	cur := chunk

	mask := 1
	for mask < size {
		if rel&mask == 0 {
			if rel+mask < size {
				src := (v.me + mask) % size
				n := v.Recv(src, tag+maskLog2(mask), tmp[mask*chunk:])
				cur = mask*chunk + n
			}
		} else {
			dst := (v.me - mask + size) % size
			v.Send(dst, tag+maskLog2(mask), tmp[:cur])
			v.r.Release(tmp)
			return
		}
		mask <<= 1
	}
	// Root: tmp holds data in relative order; rotate into absolute order.
	if root == 0 {
		v.memcpy(recv, tmp)
	} else {
		v.memcpy(recv[root*chunk:], tmp[:(size-root)*chunk])
		v.memcpy(recv[:root*chunk], tmp[(size-root)*chunk:])
	}
	v.r.Release(tmp)
}

// Reduce combines every view index's send vector with op into recv at root
// (recv is only written at root), via the binomial tree.
func Reduce(v View, root int, send, recv []byte, op nums.Op) {
	reduceTree(v, root, send, recv, op, v.tagWindow())
}

func reduceTree(v View, root int, send, recv []byte, op nums.Op, tag int) {
	size := v.Size()
	checkRoot("reduce", root, size)
	if v.me == root && len(recv) != len(send) {
		panic(fmt.Sprintf("coll: reduce buffer mismatch %d != %d", len(recv), len(send)))
	}
	if size == 1 {
		v.memcpy(recv, send)
		return
	}
	rel := (v.me - root + size) % size
	acc := v.r.Scratch(len(send))
	v.memcpy(acc, send)
	in := v.r.Scratch(len(send))

	mask := 1
	for mask < size {
		if rel&mask == 0 {
			if rel+mask < size {
				src := (v.me + mask) % size
				v.Recv(src, tag+maskLog2(mask), in)
				v.combine(acc, in, op)
			}
		} else {
			dst := (v.me - mask + size) % size
			v.Send(dst, tag+maskLog2(mask), acc)
			v.r.Release(acc, in)
			return
		}
		mask <<= 1
	}
	v.memcpy(recv, acc)
	v.r.Release(acc, in)
}

// checkRoot validates a root index against a view size.
func checkRoot(opName string, root, size int) {
	if root < 0 || root >= size {
		panic(fmt.Sprintf("coll: %s root %d outside view of %d", opName, root, size))
	}
}

// nextPow2 returns the smallest power of two >= n (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// prevPow2 returns the largest power of two <= n (n >= 1).
func prevPow2(n int) int {
	p := 1
	for p*2 <= n {
		p <<= 1
	}
	return p
}

// maskLog2 returns log2 of a power-of-two mask, for per-level tag offsets.
func maskLog2(mask int) int {
	l := 0
	for mask > 1 {
		mask >>= 1
		l++
	}
	return l
}
