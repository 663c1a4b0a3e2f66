package topology

import (
	"testing"
	"testing/quick"
)

func TestBlockPlacement(t *testing.T) {
	c := New(4, 3, Block)
	cases := []struct{ rank, node, local int }{
		{0, 0, 0}, {1, 0, 1}, {2, 0, 2},
		{3, 1, 0}, {5, 1, 2}, {11, 3, 2},
	}
	for _, tc := range cases {
		n, l := c.Place(tc.rank)
		if n != tc.node || l != tc.local {
			t.Errorf("Place(%d) = (%d,%d), want (%d,%d)", tc.rank, n, l, tc.node, tc.local)
		}
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	c := New(4, 3, RoundRobin)
	cases := []struct{ rank, node, local int }{
		{0, 0, 0}, {1, 1, 0}, {3, 3, 0},
		{4, 0, 1}, {11, 3, 2},
	}
	for _, tc := range cases {
		n, l := c.Place(tc.rank)
		if n != tc.node || l != tc.local {
			t.Errorf("Place(%d) = (%d,%d), want (%d,%d)", tc.rank, n, l, tc.node, tc.local)
		}
	}
}

// Property: Rank and Place are inverses for every layout and cluster shape.
func TestPlaceRankRoundTrip(t *testing.T) {
	f := func(nodes, ppn uint8, layoutBit bool) bool {
		n := int(nodes%16) + 1
		p := int(ppn%16) + 1
		layout := Block
		if layoutBit {
			layout = RoundRobin
		}
		c := New(n, p, layout)
		seen := make(map[int]bool)
		for node := 0; node < n; node++ {
			for local := 0; local < p; local++ {
				r := c.Rank(node, local)
				if seen[r] {
					return false // duplicate rank: mapping not a bijection
				}
				seen[r] = true
				gotNode, gotLocal := c.Place(r)
				if gotNode != node || gotLocal != local {
					return false
				}
			}
		}
		return len(seen) == c.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodeRanks(t *testing.T) {
	c := New(3, 4, Block)
	got := c.NodeRanks(1)
	want := []int{4, 5, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodeRanks(1) = %v, want %v", got, want)
		}
	}
	rr := New(3, 4, RoundRobin)
	got = rr.NodeRanks(1)
	want = []int{1, 4, 7, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rr NodeRanks(1) = %v, want %v", got, want)
		}
	}
}

func TestLeaders(t *testing.T) {
	for _, tc := range []struct {
		layout Layout
		want   []int
	}{
		{Block, []int{0, 4, 8}},
		{RoundRobin, []int{0, 1, 2}},
	} {
		c := New(3, 4, tc.layout)
		got := c.Leaders()
		if len(got) != len(tc.want) {
			t.Fatalf("%v Leaders() = %v, want %v", tc.layout, got, tc.want)
		}
		for n := range tc.want {
			if got[n] != tc.want[n] || got[n] != c.NodeRanks(n)[0] {
				t.Fatalf("%v Leaders() = %v, want %v", tc.layout, got, tc.want)
			}
		}
	}
}

// TestRankTablesShared pins the read-only table contract: NodeRanks and
// Leaders hand out the cluster's precomputed slices without allocating,
// and one node's slice cannot be appended into its neighbour's.
func TestRankTablesShared(t *testing.T) {
	c := New(4, 3, Block)
	if n := testing.AllocsPerRun(10, func() { _ = c.NodeRanks(2); _ = c.Leaders() }); n != 0 {
		t.Fatalf("NodeRanks/Leaders allocate %v objects per call, want 0", n)
	}
	if ranks := c.NodeRanks(1); cap(ranks) != len(ranks) {
		t.Fatalf("NodeRanks(1) has spare capacity %d over len %d", cap(ranks), len(ranks))
	}
	for _, node := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NodeRanks(%d) did not panic", node)
				}
			}()
			c.NodeRanks(node)
		}()
	}
}

func TestSameNode(t *testing.T) {
	c := New(2, 2, Block)
	if !c.SameNode(0, 1) || c.SameNode(1, 2) {
		t.Fatal("SameNode wrong for block layout")
	}
}

func TestPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][2]int{{0, 1}, {1, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", shape[0], shape[1])
				}
			}()
			New(shape[0], shape[1], Block)
		}()
	}
}

func TestPanicsOnBadRank(t *testing.T) {
	c := New(2, 2, Block)
	for _, r := range []int{-1, 4, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Place(%d) did not panic", r)
				}
			}()
			c.Place(r)
		}()
	}
}

func TestAccessorsAndString(t *testing.T) {
	c := New(128, 18, Block)
	if c.Nodes() != 128 || c.PPN() != 18 || c.Size() != 2304 {
		t.Fatalf("accessors wrong: %v", c)
	}
	if c.String() == "" || c.Layout().String() != "block" {
		t.Fatal("string forms empty")
	}
	if RoundRobin.String() != "round-robin" {
		t.Fatal("round-robin name")
	}
}

func TestGridBasics(t *testing.T) {
	g := NewGrid(12, 3, 4)
	if g.Rows() != 3 || g.Cols() != 4 {
		t.Fatal("shape wrong")
	}
	row, col := g.Coords(7)
	if row != 1 || col != 3 {
		t.Fatalf("Coords(7) = (%d,%d)", row, col)
	}
	if g.RankAt(1, 3) != 7 {
		t.Fatal("RankAt wrong")
	}
	// Neighbors of rank 5 (row 1, col 1).
	if g.Neighbor(5, -1, 0) != 1 || g.Neighbor(5, 1, 0) != 9 ||
		g.Neighbor(5, 0, -1) != 4 || g.Neighbor(5, 0, 1) != 6 {
		t.Fatal("interior neighbors wrong")
	}
	// Boundaries.
	if g.Neighbor(0, -1, 0) != -1 || g.Neighbor(0, 0, -1) != -1 {
		t.Fatal("boundary should be -1")
	}
	if g.Neighbor(11, 1, 0) != -1 || g.Neighbor(11, 0, 1) != -1 {
		t.Fatal("far boundary should be -1")
	}
}

func TestGridRoundTrip(t *testing.T) {
	f := func(rows, cols uint8) bool {
		r := int(rows%6) + 1
		c := int(cols%6) + 1
		g := NewGrid(r*c, r, c)
		for rank := 0; rank < r*c; rank++ {
			row, col := g.Coords(rank)
			if g.RankAt(row, col) != rank {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSquarestGrid(t *testing.T) {
	cases := map[int][2]int{16: {4, 4}, 12: {3, 4}, 7: {1, 7}, 36: {6, 6}, 18: {3, 6}}
	for size, want := range cases {
		g := SquarestGrid(size)
		if g.Rows() != want[0] || g.Cols() != want[1] {
			t.Errorf("SquarestGrid(%d) = %dx%d, want %dx%d", size, g.Rows(), g.Cols(), want[0], want[1])
		}
	}
}

func TestGridValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewGrid(6, 2, 2) },
		func() { NewGrid(4, 0, 4) },
		func() { NewGrid(12, 3, 4).Coords(12) },
		func() { NewGrid(12, 3, 4).RankAt(3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}
