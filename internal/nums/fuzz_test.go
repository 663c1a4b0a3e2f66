package nums

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzF64RoundTrip: encoding then decoding any 8-aligned byte buffer as
// float64s must reproduce the bytes exactly (including NaN payloads, which
// Go preserves through Float64bits/Float64frombits).
func FuzzF64RoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) - len(data)%F64Size
		in := data[:n]
		v := F64(in)
		out := make([]byte, n)
		PutF64(out, v)
		if !bytes.Equal(in, out) {
			t.Fatalf("round trip changed bytes: %x -> %x", in, out)
		}
	})
}

// FuzzOpsPreserveLength: every operator leaves buffer lengths untouched and
// never panics on aligned same-length inputs.
func FuzzOpsPreserveLength(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		n -= n % F64Size
		acc := append([]byte(nil), a[:n]...)
		src := append([]byte(nil), b[:n]...)
		for _, op := range []Op{Sum, Prod, Min, Max} {
			op.Combine(acc, src)
			if len(acc) != n {
				t.Fatalf("%s changed length", op.Name)
			}
		}
	})
}

// FuzzCombineMatchesPortable: for every operator, Combine must leave acc
// byte-for-byte equal to the portable encoding/binary loop. Each input runs
// with acc and src at every pair of byte offsets 0-7 into one backing array,
// so aligned inputs take the typed kernels and the rest the fallback.
func FuzzCombineMatchesPortable(f *testing.F) {
	enc := func(v ...uint64) []byte {
		b := make([]byte, F64Size*len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[i*F64Size:], x)
		}
		return b
	}
	const (
		qnan1   = 0x7ff8000000000001
		qnan2   = 0x7ff80000deadbeef
		snan    = 0x7ff0000000000001
		negNaN  = 0xfff8000000000002
		posZero = 0x0000000000000000
		negZero = 0x8000000000000000
		posInf  = 0x7ff0000000000000
		negInf  = 0xfff0000000000000
		subMin  = 0x0000000000000001
		subMax  = 0x000fffffffffffff
		one     = 0x3ff0000000000000
	)
	f.Add(
		enc(qnan1, posZero, negZero, posInf, negInf, subMin, qnan2, one, snan, subMax),
		enc(qnan2, negZero, posZero, negInf, posInf, subMin, one, negNaN, one, subMax))
	f.Add(
		enc(snan, negNaN, posInf, negZero, subMax, one),
		enc(one, qnan1, posInf, negZero, subMin, negInf))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	ops := []struct {
		op   Op
		elem func(a, b float64) float64
	}{{Sum, add}, {Prod, mul}, {Min, math.Min}, {Max, math.Max}}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		n := min(len(a), len(b), 64*F64Size)
		n -= n % F64Size
		a, b = a[:n], b[:n]
		back := make([]byte, 2*n+2*F64Size)
		for _, o := range ops {
			want := append([]byte(nil), a...)
			combinePortable(want, b, o.elem)
			for accOff := 0; accOff < F64Size; accOff++ {
				for srcOff := 0; srcOff < F64Size; srcOff++ {
					acc := back[accOff : accOff+n]
					src := back[n+F64Size+srcOff : n+F64Size+srcOff+n]
					copy(acc, a)
					copy(src, b)
					o.op.Combine(acc, src)
					if !bytes.Equal(acc, want) {
						t.Fatalf("%s at offsets %d/%d: got %x, portable loop gives %x", o.op.Name, accOff, srcOff, acc, want)
					}
				}
			}
		}
	})
}
