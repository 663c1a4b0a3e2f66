package coll

// Alltoall baselines: the Bruck algorithm for small messages (log rounds,
// each moving half the buffer) and the pairwise-exchange algorithm for
// large ones (size-1 rounds, each a single sendrecv with a distinct peer).
// These are MPICH's standard selections and serve as comparators for the
// multi-object alltoall extension in internal/core.

// AlltoallBruck performs a total exchange: view index i's chunk j of send
// lands at view index j's chunk i of recv. Bruck's algorithm: local
// rotation, log2(size) rounds exchanging the blocks whose index has bit k
// set, and a final inverse rotation. Latency-optimal for small chunks.
func AlltoallBruck(v View, send, recv []byte) {
	alltoallBruck(v, send, recv, v.tagWindow())
}

func alltoallBruck(v View, send, recv []byte, tag int) {
	size := v.Size()
	chunk := chunkOfAlltoall(v, send, recv)
	if size == 1 {
		v.memcpy(recv, send)
		return
	}
	me := v.me

	// Phase 1: local rotation — tmp block i = send block (me+i) mod size.
	tmp := v.r.Scratch(len(send))
	v.memcpy(tmp[:(size-me)*chunk], send[me*chunk:])
	v.memcpy(tmp[(size-me)*chunk:], send[:me*chunk])

	// Phase 2: for each bit k, send all blocks with bit k set to me+2^k
	// and receive the same block set from me-2^k.
	stage := 0
	for mask := 1; mask < size; mask <<= 1 {
		dst := (me + mask) % size
		src := (me - mask + size) % size
		// Pack the blocks whose index has this bit set.
		blocks := 0
		for b := mask; b < size; b++ {
			if b&mask != 0 {
				blocks++
			}
		}
		out := v.r.Scratch(blocks * chunk)
		for b, i := mask, 0; b < size; b++ {
			if b&mask != 0 {
				v.memcpy(out[i*chunk:(i+1)*chunk], tmp[b*chunk:(b+1)*chunk])
				i++
			}
		}
		in := v.r.Scratch(len(out))
		v.Sendrecv(dst, tag+stage, out, src, tag+stage, in)
		for b, i := mask, 0; b < size; b++ {
			if b&mask != 0 {
				v.memcpy(tmp[b*chunk:(b+1)*chunk], in[i*chunk:(i+1)*chunk])
				i++
			}
		}
		v.r.Release(out, in)
		stage++
	}

	// Phase 3: inverse rotation — recv block j comes from tmp block
	// (me-j) mod size, reversed block order.
	for j := 0; j < size; j++ {
		b := (me - j + size) % size
		v.memcpy(recv[j*chunk:(j+1)*chunk], tmp[b*chunk:(b+1)*chunk])
	}
	v.r.Release(tmp)
}

// AlltoallPairwise performs the total exchange in size-1 rounds: in round
// s, exchange chunk (me XOR-free pairing) with peer (me+s) / (me-s). The
// bandwidth-optimal choice for large chunks.
func AlltoallPairwise(v View, send, recv []byte) {
	alltoallPairwise(v, send, recv, v.tagWindow())
}

func alltoallPairwise(v View, send, recv []byte, tag int) {
	size := v.Size()
	chunk := chunkOfAlltoall(v, send, recv)
	v.memcpy(recv[v.me*chunk:(v.me+1)*chunk], send[v.me*chunk:(v.me+1)*chunk])
	for s := 1; s < size; s++ {
		dst := (v.me + s) % size
		src := (v.me - s + size) % size
		v.Sendrecv(dst, tag+s, send[dst*chunk:(dst+1)*chunk],
			src, tag+s, recv[src*chunk:(src+1)*chunk])
	}
}

// Alltoall picks Bruck below the threshold on per-chunk bytes, pairwise at
// or above it (MPICH's tuning).
func Alltoall(v View, send, recv []byte, pairwiseThreshold int) {
	if chunkOfAlltoall(v, send, recv) >= pairwiseThreshold {
		AlltoallPairwise(v, send, recv)
	} else {
		AlltoallBruck(v, send, recv)
	}
}

// chunkOfAlltoall validates the buffers and returns the per-peer chunk.
func chunkOfAlltoall(v View, send, recv []byte) int {
	size := v.Size()
	if len(send) != len(recv) || len(send)%size != 0 {
		panic("coll: alltoall buffers must be equal and size-divisible")
	}
	return len(send) / size
}
