// Package topology describes the simulated cluster layout: how many nodes,
// how many processes per node, and how MPI ranks map onto (node, local rank)
// coordinates. The paper's testbed is 128 Xeon Broadwell nodes with 18
// processes per node (2304 ranks, block layout); all experiment drivers build
// their clusters through this package so that the mapping logic lives in one
// place and is exhaustively tested.
package topology

import "fmt"

// Layout selects how consecutive ranks are placed on nodes.
type Layout int

const (
	// Block places ranks 0..P-1 on node 0, P..2P-1 on node 1, and so on.
	// This is the layout the paper (and mpirun defaults) use, and the one
	// PiP-MColl's rank arithmetic assumes.
	Block Layout = iota
	// RoundRobin deals ranks onto nodes like cards: rank r lives on node
	// r mod N. Included to test algorithm correctness under remapping.
	RoundRobin
)

// String returns the layout name.
func (l Layout) String() string {
	switch l {
	case Block:
		return "block"
	case RoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// Cluster is an immutable description of a simulated machine.
type Cluster struct {
	nodes  int
	ppn    int
	layout Layout
	// nodeRanks[n] lists node n's global ranks in local-rank order and
	// leaders lists each node's local rank 0 in node order; both are built
	// once by New and shared read-only (see NodeRanks and Leaders).
	nodeRanks [][]int
	leaders   []int
}

// New returns a cluster of nodes × ppn ranks with the given layout.
// It panics if nodes or ppn is not positive, since a cluster's shape is
// always program-chosen, never user input.
func New(nodes, ppn int, layout Layout) *Cluster {
	if nodes < 1 || ppn < 1 {
		panic(fmt.Sprintf("topology: invalid cluster %d nodes x %d ppn", nodes, ppn))
	}
	c := &Cluster{nodes: nodes, ppn: ppn, layout: layout}
	flat := make([]int, nodes*ppn)
	c.nodeRanks = make([][]int, nodes)
	c.leaders = make([]int, nodes)
	for n := range c.nodeRanks {
		ranks := flat[n*ppn : (n+1)*ppn : (n+1)*ppn]
		for l := range ranks {
			ranks[l] = c.Rank(n, l)
		}
		c.nodeRanks[n] = ranks
		c.leaders[n] = ranks[0]
	}
	return c
}

// Nodes returns the number of nodes.
func (c *Cluster) Nodes() int { return c.nodes }

// PPN returns the number of processes (ranks) per node.
func (c *Cluster) PPN() int { return c.ppn }

// Size returns the total number of ranks.
func (c *Cluster) Size() int { return c.nodes * c.ppn }

// Layout returns the rank placement policy.
func (c *Cluster) Layout() Layout { return c.layout }

// Place returns the node id and local rank of a global rank.
func (c *Cluster) Place(rank int) (node, local int) {
	c.checkRank(rank)
	switch c.layout {
	case Block:
		return rank / c.ppn, rank % c.ppn
	case RoundRobin:
		return rank % c.nodes, rank / c.nodes
	default:
		panic("topology: unknown layout")
	}
}

// Rank returns the global rank living at (node, local).
func (c *Cluster) Rank(node, local int) int {
	if node < 0 || node >= c.nodes || local < 0 || local >= c.ppn {
		panic(fmt.Sprintf("topology: (%d,%d) outside %dx%d cluster", node, local, c.nodes, c.ppn))
	}
	switch c.layout {
	case Block:
		return node*c.ppn + local
	case RoundRobin:
		return local*c.nodes + node
	default:
		panic("topology: unknown layout")
	}
}

// Node returns the node id of a global rank.
func (c *Cluster) Node(rank int) int { n, _ := c.Place(rank); return n }

// Local returns the local rank (0..PPN-1) of a global rank.
func (c *Cluster) Local(rank int) int { _, l := c.Place(rank); return l }

// SameNode reports whether two ranks share a node.
func (c *Cluster) SameNode(a, b int) bool { return c.Node(a) == c.Node(b) }

// NodeRanks returns the global ranks living on a node, in local-rank order.
// The slice is the cluster's own table, shared by every caller: it must not
// be modified.
func (c *Cluster) NodeRanks(node int) []int {
	if node < 0 || node >= c.nodes {
		panic(fmt.Sprintf("topology: node %d outside %dx%d cluster", node, c.nodes, c.ppn))
	}
	return c.nodeRanks[node]
}

// Leaders returns each node's local rank 0, in node order. Like NodeRanks it
// returns the cluster's shared table, which must not be modified.
func (c *Cluster) Leaders() []int { return c.leaders }

// String describes the cluster shape.
func (c *Cluster) String() string {
	return fmt.Sprintf("%d nodes x %d ppn (%d ranks, %s)", c.nodes, c.ppn, c.Size(), c.layout)
}

func (c *Cluster) checkRank(rank int) {
	if rank < 0 || rank >= c.Size() {
		panic(fmt.Sprintf("topology: rank %d outside cluster of size %d", rank, c.Size()))
	}
}

// Grid is a 2D Cartesian process grid over a cluster's ranks (row-major),
// the MPI_Cart_create-style helper stencil codes use. Rows*Cols must equal
// the cluster size.
type Grid struct {
	rows, cols int
}

// NewGrid shapes size ranks into rows x cols (row-major). It panics unless
// rows*cols == size.
func NewGrid(size, rows, cols int) Grid {
	if rows < 1 || cols < 1 || rows*cols != size {
		panic(fmt.Sprintf("topology: grid %dx%d over %d ranks", rows, cols, size))
	}
	return Grid{rows: rows, cols: cols}
}

// SquarestGrid returns the most-square rows x cols factorization of size.
func SquarestGrid(size int) Grid {
	best := 1
	for d := 1; d*d <= size; d++ {
		if size%d == 0 {
			best = d
		}
	}
	return Grid{rows: best, cols: size / best}
}

// Rows returns the number of grid rows.
func (g Grid) Rows() int { return g.rows }

// Cols returns the number of grid columns.
func (g Grid) Cols() int { return g.cols }

// Coords returns rank's (row, col).
func (g Grid) Coords(rank int) (row, col int) {
	if rank < 0 || rank >= g.rows*g.cols {
		panic(fmt.Sprintf("topology: rank %d outside %dx%d grid", rank, g.rows, g.cols))
	}
	return rank / g.cols, rank % g.cols
}

// RankAt returns the rank at (row, col).
func (g Grid) RankAt(row, col int) int {
	if row < 0 || row >= g.rows || col < 0 || col >= g.cols {
		panic(fmt.Sprintf("topology: (%d,%d) outside %dx%d grid", row, col, g.rows, g.cols))
	}
	return row*g.cols + col
}

// Neighbor returns the rank one step in the given direction (drow, dcol),
// or -1 at a non-periodic boundary.
func (g Grid) Neighbor(rank, drow, dcol int) int {
	row, col := g.Coords(rank)
	nr, nc := row+drow, col+dcol
	if nr < 0 || nr >= g.rows || nc < 0 || nc >= g.cols {
		return -1
	}
	return g.RankAt(nr, nc)
}
