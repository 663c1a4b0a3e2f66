// Package nums provides the typed view the collectives need over raw byte
// buffers: encoding/decoding of little-endian float64 vectors and the
// reduction operators (sum, product, min, max) MPI_Allreduce applies.
// Keeping payloads as []byte everywhere lets the transport layers stay
// type-agnostic while reductions remain numerically real and testable.
//
// The reduction operators and Fill are the simulator's data kernels. On a
// little-endian host, an 8-byte-aligned buffer already holds its float64
// elements in memory order, so they run a plain typed loop over a []float64
// alias of the bytes. Any other buffer (an unaligned sub-slice, or any
// buffer on a big-endian host) takes the portable encoding/binary loop. Both
// paths apply the same float64 operation to the same operands in the same
// order, so results are bit-identical whichever one runs.
package nums

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// F64Size is the byte width of one float64 element.
const F64Size = 8

// PutF64 encodes v into dst, which must be exactly 8*len(v) bytes.
func PutF64(dst []byte, v []float64) {
	if len(dst) != F64Size*len(v) {
		panic(fmt.Sprintf("nums: PutF64 buffer %dB for %d elements", len(dst), len(v)))
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[i*F64Size:], math.Float64bits(x))
	}
}

// F64 decodes b (length a multiple of 8) into a fresh []float64.
func F64(b []byte) []float64 {
	if len(b)%F64Size != 0 {
		panic(fmt.Sprintf("nums: F64 on %dB buffer (not a multiple of 8)", len(b)))
	}
	v := make([]float64, len(b)/F64Size)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*F64Size:]))
	}
	return v
}

// F64At reads element i of the float64 vector encoded in b.
func F64At(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[i*F64Size:]))
}

// SetF64At writes element i of the float64 vector encoded in b.
func SetF64At(b []byte, i int, x float64) {
	binary.LittleEndian.PutUint64(b[i*F64Size:], math.Float64bits(x))
}

// Op is a binary reduction operator over float64 vectors encoded in bytes.
// Combine folds src into acc element-wise; both must have equal length, a
// multiple of 8.
type Op struct {
	Name    string
	Combine func(acc, src []byte)
}

// littleEndian reports whether the host stores an integer's low byte first,
// the byte order the []byte encoding uses.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// view aliases b as the float64 vector it encodes, without copying. It
// succeeds only when that alias reads the same values as F64At: the host is
// little-endian and &b[0] is 8-byte aligned, so every element is a naturally
// aligned float64. Trailing bytes past the last whole element are left out.
func view(b []byte) ([]float64, bool) {
	if !littleEndian || len(b) < F64Size {
		return nil, false
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%F64Size != 0 {
		return nil, false
	}
	return unsafe.Slice((*float64)(p), len(b)/F64Size), true
}

// foldOp builds an operator from its element function f, which the portable
// loop calls, and typed, the same fold over aligned float64 views.
func foldOp(name string, f func(a, b float64) float64, typed func(acc, src []float64)) Op {
	return Op{
		Name: name,
		Combine: func(acc, src []byte) {
			if len(acc) != len(src) || len(acc)%F64Size != 0 {
				panic(fmt.Sprintf("nums: %s on mismatched buffers %dB/%dB", name, len(acc), len(src)))
			}
			if a, ok := view(acc); ok {
				if s, ok := view(src); ok {
					typed(a, s)
					return
				}
			}
			combinePortable(acc, src, f)
		},
	}
}

// combinePortable folds src into acc with f, decoding and encoding each
// element: correct for any alignment and host byte order.
func combinePortable(acc, src []byte, f func(a, b float64) float64) {
	for i := 0; i < len(acc); i += F64Size {
		a := math.Float64frombits(binary.LittleEndian.Uint64(acc[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(acc[i:], math.Float64bits(f(a, b)))
	}
}

func add(a, b float64) float64 { return a + b }
func mul(a, b float64) float64 { return a * b }

// The typed kernels: each applies its operator's element function to
// (acc[i], src[i]), in that order, as combinePortable does.
func sumF64(acc, src []float64) {
	src = src[:len(acc)]
	for i := range acc {
		acc[i] += src[i]
	}
}

func prodF64(acc, src []float64) {
	src = src[:len(acc)]
	for i := range acc {
		acc[i] *= src[i]
	}
}

func minF64(acc, src []float64) {
	src = src[:len(acc)]
	for i := range acc {
		acc[i] = math.Min(acc[i], src[i])
	}
}

func maxF64(acc, src []float64) {
	src = src[:len(acc)]
	for i := range acc {
		acc[i] = math.Max(acc[i], src[i])
	}
}

// The standard MPI reduction operators over float64.
var (
	Sum  = foldOp("sum", add, sumF64)
	Prod = foldOp("prod", mul, prodF64)
	Min  = foldOp("min", math.Min, minF64)
	Max  = foldOp("max", math.Max, maxF64)
)

// Fill writes a deterministic, rank-and-index-dependent float64 pattern into
// buf (length a multiple of 8). Every (seed, index) pair yields a distinct
// value, so tests catch both misplaced and miscombined elements.
func Fill(buf []byte, seed int) {
	if len(buf)%F64Size != 0 {
		panic(fmt.Sprintf("nums: Fill on %dB buffer", len(buf)))
	}
	v, ok := view(buf)
	if !ok {
		for i := 0; i < len(buf)/F64Size; i++ {
			SetF64At(buf, i, PatternValue(seed, i))
		}
		return
	}
	base, j := patternBase(seed), 0
	for i := range v {
		v[i] = base + float64(j)
		if j++; j == patternPeriod {
			j = 0
		}
	}
}

// patternPeriod is the index period of the fill pattern.
const patternPeriod = 97

func patternBase(seed int) float64 { return float64((seed + 1) * 1000003 % 8191) }

// PatternValue is the deterministic fill value for (seed, index): chosen so
// that sums of distinct subsets differ and floating-point addition is exact
// at the scales the tests use (small integers).
func PatternValue(seed, i int) float64 {
	return patternBase(seed) + float64(i%patternPeriod)
}

// FillBytes writes a deterministic byte pattern (not float64-structured)
// for pure data-movement collectives like scatter and allgather.
func FillBytes(buf []byte, seed int) {
	for i := range buf {
		buf[i] = byte((seed*131 + i*29 + 7) % 251)
	}
}
