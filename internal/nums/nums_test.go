package nums

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPutF64RoundTrip(t *testing.T) {
	f := func(v []float64) bool {
		b := make([]byte, F64Size*len(v))
		PutF64(b, v)
		got := F64(b)
		for i := range v {
			if got[i] != v[i] && !(math.IsNaN(got[i]) && math.IsNaN(v[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestF64AtSetF64At(t *testing.T) {
	b := make([]byte, 24)
	SetF64At(b, 0, 1.5)
	SetF64At(b, 1, -2.25)
	SetF64At(b, 2, math.Inf(1))
	if F64At(b, 0) != 1.5 || F64At(b, 1) != -2.25 || !math.IsInf(F64At(b, 2), 1) {
		t.Fatalf("decoded %v %v %v", F64At(b, 0), F64At(b, 1), F64At(b, 2))
	}
}

func TestPutF64SizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	PutF64(make([]byte, 7), []float64{1})
}

func TestF64BadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	F64(make([]byte, 9))
}

func TestOps(t *testing.T) {
	enc := func(v ...float64) []byte {
		b := make([]byte, F64Size*len(v))
		PutF64(b, v)
		return b
	}
	cases := []struct {
		op   Op
		a, b []float64
		want []float64
	}{
		{Sum, []float64{1, 2, 3}, []float64{10, 20, 30}, []float64{11, 22, 33}},
		{Prod, []float64{2, 3}, []float64{4, 5}, []float64{8, 15}},
		{Min, []float64{1, 9}, []float64{5, 2}, []float64{1, 2}},
		{Max, []float64{1, 9}, []float64{5, 2}, []float64{5, 9}},
	}
	for _, c := range cases {
		acc := enc(c.a...)
		c.op.Combine(acc, enc(c.b...))
		got := F64(acc)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: got %v, want %v", c.op.Name, got, c.want)
			}
		}
	}
}

func TestOpMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Sum.Combine(make([]byte, 8), make([]byte, 16))
}

// Property: Sum is commutative and associative on the test pattern values
// (they are small integers, so float addition is exact).
func TestSumOrderIndependent(t *testing.T) {
	f := func(seeds []uint8, n uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		count := int(n%16) + 1
		forward := make([]byte, F64Size*count)
		Fill(forward, 0)
		backward := append([]byte(nil), forward...)
		bufs := make([][]byte, len(seeds))
		for i, s := range seeds {
			bufs[i] = make([]byte, F64Size*count)
			Fill(bufs[i], int(s))
		}
		for _, b := range bufs {
			Sum.Combine(forward, b)
		}
		for i := len(bufs) - 1; i >= 0; i-- {
			Sum.Combine(backward, bufs[i])
		}
		for i := 0; i < count; i++ {
			if F64At(forward, i) != F64At(backward, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPatternDistinctBySeed(t *testing.T) {
	a := make([]byte, 64)
	b := make([]byte, 64)
	Fill(a, 1)
	Fill(b, 2)
	same := 0
	for i := 0; i < 8; i++ {
		if F64At(a, i) == F64At(b, i) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("patterns for different seeds identical")
	}
}

func TestFillBytesDeterministic(t *testing.T) {
	a := make([]byte, 128)
	b := make([]byte, 128)
	FillBytes(a, 5)
	FillBytes(b, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FillBytes not deterministic")
		}
	}
	FillBytes(b, 6)
	diff := false
	for i := range a {
		if a[i] != b[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("FillBytes ignores seed")
	}
}

func TestFillBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Fill(make([]byte, 12), 0)
}

// The typed kernels run only on buffers view accepts. Buffers from make and
// their element-aligned sub-slices must be accepted, or every reduction in
// the simulator silently drops to the portable loop.
func TestViewGuard(t *testing.T) {
	if !littleEndian {
		if _, ok := view(make([]byte, 64)); ok {
			t.Fatal("view accepted a buffer on a big-endian host")
		}
		return
	}
	for _, n := range []int{8, 16, 24, 64, 776, 4096, 1 << 20} {
		b := make([]byte, n)
		for off := 0; off+F64Size <= n; off += F64Size {
			sub := b[off:]
			v, ok := view(sub)
			if !ok || len(v) != len(sub)/F64Size {
				t.Fatalf("make([]byte, %d)[%d:]: view = %d elements, %v", n, off, len(v), ok)
			}
			v[0] = -1.25
			if F64At(sub, 0) != -1.25 {
				t.Fatalf("make([]byte, %d)[%d:]: view does not alias the encoding", n, off)
			}
		}
		if n > F64Size {
			if _, ok := view(b[1:]); ok {
				t.Fatalf("make([]byte, %d)[1:]: view accepted an unaligned buffer", n)
			}
		}
	}
	if _, ok := view(make([]byte, 0, 64)); ok {
		t.Fatal("view accepted an empty buffer")
	}
}

// Fill must write PatternValue bit for bit on both paths, across several
// wraps of the index period.
func TestFillMatchesPatternValue(t *testing.T) {
	const n = 3*patternPeriod + 5
	back := make([]byte, (n+1)*F64Size)
	for off := 0; off < F64Size; off++ {
		buf := back[off : off+n*F64Size]
		for _, seed := range []int{0, 1, 7, 8190, 1 << 20} {
			Fill(buf, seed)
			for i := 0; i < n; i++ {
				if got, want := F64At(buf, i), PatternValue(seed, i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("offset %d seed %d element %d: Fill wrote %v, PatternValue is %v", off, seed, i, got, want)
				}
			}
		}
	}
}
