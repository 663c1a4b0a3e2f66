package shm

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/nums"
	"repro/internal/simtime"
)

func TestMechanismString(t *testing.T) {
	names := map[Mechanism]string{
		PiP: "PiP", POSIX: "POSIX-SHMEM", CMA: "CMA", XPMEM: "XPMEM", KNEM: "KNEM",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if Mechanism(99).String() == "" {
		t.Error("unknown mechanism produced empty string")
	}
}

func TestValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := DefaultParams()
	bad.CopyBandwidth = 0
	if bad.Validate() == nil {
		t.Fatal("zero copy bandwidth accepted")
	}
	bad = DefaultParams()
	bad.SyscallCost = -1
	if bad.Validate() == nil {
		t.Fatal("negative syscall cost accepted")
	}
	if _, err := NewNode(bad); err == nil {
		t.Fatal("NewNode accepted bad params")
	}
	// NaN/Inf sail through ordered comparisons, so Validate must reject
	// them explicitly.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = DefaultParams()
		bad.CopyBandwidth = v
		if bad.Validate() == nil {
			t.Errorf("copy bandwidth %v accepted", v)
		}
		bad = DefaultParams()
		bad.NodeMemBandwidth = v
		if bad.Validate() == nil {
			t.Errorf("node memory bandwidth %v accepted", v)
		}
	}
}

func TestMemcpyMovesBytesAndChargesTime(t *testing.T) {
	nd := MustNewNode(DefaultParams())
	e := simtime.NewEngine()
	src := []byte("the quick brown fox jumps over the lazy dog....")
	dst := make([]byte, len(src))
	e.Spawn("p", func(p *simtime.Proc) {
		before := p.Now()
		nd.Memcpy(p, dst, src)
		want := simtime.TransferTime(len(src), nd.Params().CopyBandwidth)
		if got := p.Now().Sub(before); got != want {
			t.Errorf("memcpy charged %v, want %v", got, want)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("memcpy did not move bytes")
	}
	if s := nd.Stats(); s.Copies != 1 || s.Bytes != int64(len(src)) {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMemcpyLengthMismatchPanics(t *testing.T) {
	nd := MustNewNode(DefaultParams())
	e := simtime.NewEngine()
	e.Spawn("p", func(p *simtime.Proc) {
		nd.Memcpy(p, make([]byte, 3), make([]byte, 4))
	})
	if err := e.Run(); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestTransferCostOrdering(t *testing.T) {
	// For a medium message, the paper's ordering must hold:
	// PiP (single copy, no syscall) < XPMEM warm < CMA < KNEM, and
	// POSIX double copy worse than single copy mechanisms at size.
	nd := MustNewNode(DefaultParams())
	const n = 64 << 10
	pip := nd.TransferCost(PiP, 0, 1, n)
	posix := nd.TransferCost(POSIX, 0, 1, n)
	_ = nd.TransferCost(XPMEM, 0, 1, n) // cold: includes attach
	xpmemWarm := nd.TransferCost(XPMEM, 0, 1, n)
	cma := nd.TransferCost(CMA, 0, 1, n)
	knem := nd.TransferCost(KNEM, 0, 1, n)
	if !(pip < xpmemWarm+1 && xpmemWarm < cma && cma < knem) {
		t.Errorf("ordering violated: pip=%v xpmem=%v cma=%v knem=%v", pip, xpmemWarm, cma, knem)
	}
	if posix <= cma {
		t.Errorf("POSIX double copy %v should exceed CMA %v at 64kB", posix, cma)
	}
}

func TestSmallMessageOrdering(t *testing.T) {
	// For tiny messages the syscall mechanisms must lose to POSIX and PiP:
	// this is the premise of the paper's small-message analysis.
	nd := MustNewNode(DefaultParams())
	const n = 16
	posix := nd.TransferCost(POSIX, 0, 1, n)
	cma := nd.TransferCost(CMA, 0, 1, n)
	knem := nd.TransferCost(KNEM, 0, 1, n)
	pip := nd.TransferCost(PiP, 0, 1, n)
	if posix >= cma || posix >= knem {
		t.Errorf("POSIX %v should beat syscall mechanisms (cma=%v knem=%v) at 16B", posix, cma, knem)
	}
	if pip >= cma {
		t.Errorf("PiP copy %v should beat CMA %v at 16B", pip, cma)
	}
}

func TestXPMEMAttachCachedPerPair(t *testing.T) {
	nd := MustNewNode(DefaultParams())
	const n = 1024
	cold := nd.TransferCost(XPMEM, 2, 3, n)
	warm := nd.TransferCost(XPMEM, 2, 3, n)
	otherPair := nd.TransferCost(XPMEM, 3, 2, n)
	if cold <= warm {
		t.Errorf("cold %v should exceed warm %v", cold, warm)
	}
	if otherPair != cold {
		t.Errorf("distinct pair should pay attach again: %v vs %v", otherPair, cold)
	}
	if nd.Stats().Attaches != 2 {
		t.Errorf("attaches = %d, want 2", nd.Stats().Attaches)
	}
	nd.ResetAttachCache()
	if again := nd.TransferCost(XPMEM, 2, 3, n); again != cold {
		t.Errorf("after reset, attach should be paid again: %v vs %v", again, cold)
	}
}

func TestSizeSyncCounts(t *testing.T) {
	nd := MustNewNode(DefaultParams())
	e := simtime.NewEngine()
	e.Spawn("p", func(p *simtime.Proc) {
		nd.SizeSync(p)
		if p.Now() != simtime.Time(0).Add(nd.Params().PiPSizeSync) {
			t.Errorf("size sync charged %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if nd.Stats().SizeSyncs != 1 {
		t.Fatalf("size syncs = %d", nd.Stats().SizeSyncs)
	}
}

func TestCombine(t *testing.T) {
	nd := MustNewNode(DefaultParams())
	e := simtime.NewEngine()
	acc, src := make([]byte, 24), make([]byte, 24)
	nums.PutF64(acc, []float64{1, 2, 3})
	nums.PutF64(src, []float64{10, 20, 30})
	e.Spawn("p", func(p *simtime.Proc) {
		nd.Combine(p, acc, src, nums.Sum)
		want := simtime.TransferTime(24, nd.Params().ReduceBandwidth)
		if p.Now() != simtime.Time(0).Add(want) {
			t.Errorf("reduce charged %v, want %v", p.Now(), want)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := nums.F64(acc); got[0] != 11 || got[1] != 22 || got[2] != 33 {
		t.Fatalf("acc = %v", got)
	}
	if st := nd.Stats(); st.Reduces != 1 || st.RedBytes != 24 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReduceLengthMismatchPanics(t *testing.T) {
	nd := MustNewNode(DefaultParams())
	e := simtime.NewEngine()
	e.Spawn("p", func(p *simtime.Proc) {
		nd.Combine(p, make([]byte, 16), make([]byte, 24), nums.Sum)
	})
	if err := e.Run(); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestUnknownMechanismPanics(t *testing.T) {
	nd := MustNewNode(DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("unknown mechanism accepted")
		}
	}()
	nd.TransferCost(Mechanism(42), 0, 1, 8)
}

// Property: every mechanism's transfer cost is monotone in message size and
// scales at least linearly past the fixed overheads.
func TestTransferCostMonotone(t *testing.T) {
	nd := MustNewNode(DefaultParams())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mech := []Mechanism{PiP, POSIX, CMA, XPMEM, KNEM}[rng.Intn(5)]
		a := rng.Intn(1 << 20)
		b := a + 1 + rng.Intn(1<<20)
		// Warm the attach cache so XPMEM compares copy cost only.
		nd.TransferCost(mech, 0, 1, 1)
		ca := nd.TransferCost(mech, 0, 1, a)
		cb := nd.TransferCost(mech, 0, 1, b)
		return cb >= ca
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Memcpy is exact for arbitrary payloads.
func TestMemcpyProperty(t *testing.T) {
	nd := MustNewNode(DefaultParams())
	f := func(data []byte) bool {
		dst := make([]byte, len(data))
		e := simtime.NewEngine()
		e.Spawn("p", func(p *simtime.Proc) { nd.Memcpy(p, dst, data) })
		if err := e.Run(); err != nil {
			return false
		}
		return bytes.Equal(dst, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemContentionDisabledByDefault(t *testing.T) {
	nd := MustNewNode(DefaultParams())
	e := simtime.NewEngine()
	const n = 1 << 20
	per := simtime.TransferTime(n, nd.Params().CopyBandwidth)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("c%d", i), func(p *simtime.Proc) {
			nd.Memcpy(p, make([]byte, n), make([]byte, n))
			if p.Now() != simtime.Time(0).Add(per) {
				t.Errorf("copier %d took %v, want uncontended %v", i, p.Now(), per)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMemContentionSerializesAggregate(t *testing.T) {
	params := DefaultParams()
	params.NodeMemBandwidth = params.CopyBandwidth // aggregate == one core
	nd := MustNewNode(params)
	e := simtime.NewEngine()
	const n = 1 << 20
	per := simtime.TransferTime(n, params.CopyBandwidth)
	var latest simtime.Time
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("c%d", i), func(p *simtime.Proc) {
			nd.Memcpy(p, make([]byte, n), make([]byte, n))
			if p.Now() > latest {
				latest = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Four concurrent copies through a port as fast as one core must
	// serialize: the last finishes at ~4x the single-copy time.
	if want := simtime.Time(0).Add(4 * per); latest != want {
		t.Fatalf("last copier finished at %v, want %v", latest, want)
	}
}

func TestMemContentionValidation(t *testing.T) {
	bad := DefaultParams()
	bad.NodeMemBandwidth = -1
	if bad.Validate() == nil {
		t.Fatal("negative node memory bandwidth accepted")
	}
}

func TestChargeTransferAppliesMechanismCost(t *testing.T) {
	nd := MustNewNode(DefaultParams())
	e := simtime.NewEngine()
	e.Spawn("p", func(p *simtime.Proc) {
		before := p.Now()
		nd.ChargeTransfer(p, CMA, 0, 1, 4096)
		want := nd.Params().SyscallCost + nd.Params().PageFaultCost +
			simtime.TransferTime(4096, nd.Params().CopyBandwidth)
		if got := p.Now().Sub(before); got != want {
			t.Errorf("ChargeTransfer charged %v, want %v", got, want)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
