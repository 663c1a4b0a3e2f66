package coll

// AllgatherBruck gathers every view index's send chunk into recv (at offset
// i*chunk for view index i) using the Bruck algorithm: ceil(log2 size)
// rounds of doubling block exchanges followed by a local rotation. The MPI
// standard choice for small messages on non-power-of-two sizes.
func AllgatherBruck(v View, send, recv []byte) {
	allgatherBruck(v, send, recv, v.tagWindow())
}

func allgatherBruck(v View, send, recv []byte, tag int) {
	size := v.Size()
	chunk := len(send)
	checkChunk("allgather", size, chunk, len(recv))
	if size == 1 {
		v.memcpy(recv, send)
		return
	}

	// tmp accumulates blocks in relative order: tmp block i holds the
	// data of view index (me+i) % size.
	tmp := v.r.Scratch(len(recv))
	v.memcpy(tmp[:chunk], send)

	have := 1
	step := 0
	for have < size {
		cnt := have
		if size-have < cnt {
			cnt = size - have
		}
		src := (v.me + have) % size
		dst := (v.me - have + size) % size
		v.Sendrecv(dst, tag+step, tmp[:cnt*chunk], src, tag+step, tmp[have*chunk:(have+cnt)*chunk])
		have += cnt
		step++
	}

	// Rotate into absolute order: tmp block i belongs to view index
	// (me+i) % size.
	v.memcpy(recv[v.me*chunk:], tmp[:(size-v.me)*chunk])
	v.memcpy(recv[:v.me*chunk], tmp[(size-v.me)*chunk:])
	v.r.Release(tmp)
}

// AllgatherRecDoubling is the recursive-doubling allgather, the MPI standard
// choice for small messages on power-of-two sizes. It panics if the view
// size is not a power of two.
func AllgatherRecDoubling(v View, send, recv []byte) {
	allgatherRecDoubling(v, send, recv, v.tagWindow())
}

func allgatherRecDoubling(v View, send, recv []byte, tag int) {
	size := v.Size()
	chunk := len(send)
	checkChunk("allgather", size, chunk, len(recv))
	if size&(size-1) != 0 {
		panic("coll: recursive-doubling allgather requires power-of-two size")
	}
	v.memcpy(recv[v.me*chunk:(v.me+1)*chunk], send)
	mask := 1
	step := 0
	for mask < size {
		peer := v.me ^ mask
		myBlock := v.me &^ (mask - 1)
		peerBlock := peer &^ (mask - 1)
		v.Sendrecv(peer, tag+step,
			recv[myBlock*chunk:(myBlock+mask)*chunk],
			peer, tag+step,
			recv[peerBlock*chunk:(peerBlock+mask)*chunk])
		mask <<= 1
		step++
	}
}

// AllgatherRing is the bandwidth-optimal ring allgather used by MPI
// libraries for large messages: size-1 steps, each passing one block to the
// right neighbour.
func AllgatherRing(v View, send, recv []byte) {
	allgatherRing(v, send, recv, v.tagWindow())
}

func allgatherRing(v View, send, recv []byte, tag int) {
	size := v.Size()
	chunk := len(send)
	checkChunk("allgather", size, chunk, len(recv))
	v.memcpy(recv[v.me*chunk:(v.me+1)*chunk], send)
	if size == 1 {
		return
	}
	left := (v.me - 1 + size) % size
	right := (v.me + 1) % size
	for s := 0; s < size-1; s++ {
		sendBlock := (v.me - s + size*2) % size
		recvBlock := (v.me - s - 1 + size*2) % size
		v.Sendrecv(right, tag+s,
			recv[sendBlock*chunk:(sendBlock+1)*chunk],
			left, tag+s,
			recv[recvBlock*chunk:(recvBlock+1)*chunk])
	}
}

// Allgather picks the conventional MPI algorithm for the view size (the
// selection MPICH documents): recursive doubling for power-of-two sizes
// with small payloads, Bruck for non-power-of-two small payloads, and the
// ring for large payloads.
func Allgather(v View, send, recv []byte, ringThreshold int) {
	total := len(send) * v.Size()
	switch {
	case total > ringThreshold:
		AllgatherRing(v, send, recv)
	case v.Size()&(v.Size()-1) == 0:
		AllgatherRecDoubling(v, send, recv)
	default:
		AllgatherBruck(v, send, recv)
	}
}
