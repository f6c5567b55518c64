package absint

import (
	"math"
	"testing"

	"github.com/ccp-repro/ccp/internal/lang"
)

func TestIntervalLattice(t *testing.T) {
	a, b := Interval{0, 5}, Interval{3, 10}
	if j := a.Join(b); j != (Interval{0, 10}) {
		t.Errorf("Join = %v", j)
	}
	if m := a.Meet(b); m != (Interval{3, 5}) {
		t.Errorf("Meet = %v", m)
	}
	if m := a.Meet(Interval{6, 7}); !m.IsEmpty() {
		t.Errorf("disjoint Meet not empty: %v", m)
	}
	if j := Empty().Join(a); j != a {
		t.Errorf("Empty Join = %v", j)
	}
	if !Point(0).Contains(0) || Point(0).IsEmpty() {
		t.Errorf("Point(0) malformed")
	}
}

func TestWidenThresholds(t *testing.T) {
	cases := []struct {
		prev, next, want Interval
	}{
		{Interval{0, 100}, Interval{0, 101}, Interval{0, 1024}},
		{Interval{0, 1024}, Interval{0, 2000}, Interval{0, 65536}},
		{Interval{0, 65536}, Interval{0, 1e7}, Interval{0, 1 << 30}},
		{Interval{0, 1 << 30}, Interval{0, 2e12}, Interval{0, math.Inf(1)}},
		{Interval{0, 5}, Interval{0, 5}, Interval{0, 5}},       // stable: untouched
		{Interval{0, 5}, Interval{-2, 5}, Interval{-65536, 5}}, // only the moved endpoint widens
		{Interval{0, 0.5}, Interval{0, 0.8}, Interval{0, 1}},
	}
	for _, c := range cases {
		if got := c.prev.Widen(c.next); got != c.want {
			t.Errorf("Widen(%v, %v) = %v, want %v", c.prev, c.next, got, c.want)
		}
	}
}

func TestDivTransfer(t *testing.T) {
	// Denominator excluding zero: plain interval division.
	if got := iDiv(Interval{1, 1}, Interval{2, 4}); got != (Interval{0.25, 0.5}) {
		t.Errorf("iDiv = %v", got)
	}
	// Denominator containing zero degrades to Top (which contains the
	// runtime's x/0 == 0 substitute).
	if got := iDiv(Interval{1, 1}, Interval{0, 4}); !got.Contains(0) || !got.HasInf() {
		t.Errorf("iDiv over zero = %v, want Top", got)
	}
	// Exactly-zero denominator: the result is exactly 0.
	if got := iDiv(Interval{1, 1}, Point(0)); got != Point(0) {
		t.Errorf("iDiv by {0} = %v, want {0}", got)
	}
}

// TestSquashTransfer: arithmetic results are never NaN/Inf at runtime —
// any abstract path to one must fold 0 into the interval and clear NaN.
func TestSquashTransfer(t *testing.T) {
	inf := AbsVal{I: Interval{0, math.Inf(1)}}
	one := ConstVal(1)
	got := binTransfer(lang.OpAdd, inf, one)
	if got.NaN || !got.I.Contains(0) {
		t.Errorf("Inf+1 transfer = %v: want 0 folded in (overflow squash), no NaN", got)
	}
	nan := AbsVal{I: Empty(), NaN: true}
	got = binTransfer(lang.OpMax, nan, ConstVal(5))
	if got.NaN || !got.I.Contains(0) {
		t.Errorf("max(NaN, 5) transfer = %v: runtime yields 0, abstract must contain it", got)
	}
	// A NaN-free finite op stays exact.
	got = binTransfer(lang.OpMul, ConstVal(3), ConstVal(4))
	if got.NaN || got.I != Point(12) {
		t.Errorf("3*4 transfer = %v", got)
	}
}

func TestCompareWithNaN(t *testing.T) {
	nan := AbsVal{I: Empty(), NaN: true}
	five := ConstVal(5)
	if c := compare(lang.OpLt, nan, five); c != tFalse {
		t.Errorf("NaN < 5 = %d, want definitely false", c)
	}
	if c := compare(lang.OpNe, nan, five); c != tTrue {
		t.Errorf("NaN != 5 = %d, want definitely true", c)
	}
	mayNaN := AbsVal{I: Interval{0, 1}, NaN: true}
	if c := compare(lang.OpLt, mayNaN, ConstVal(10)); c != tUnknown {
		t.Errorf("maybe-NaN < 10 = %d, want unknown (NaN compares false)", c)
	}
	if c := compare(lang.OpLt, mayNaN, ConstVal(-1)); c != tFalse {
		t.Errorf("maybe-NaN in [0,1] < -1 = %d, want false (NaN also false)", c)
	}
}

// TestTransferContainsEveryOperator is the abstract leg of lang's operator
// table test (TestEveryOperatorEverywhere): for every BinKind, the transfer
// function's result contains the concrete one at every pair of sample points
// — the special values included — both from point operands and from operands
// joined with a neighbouring sample. On ordinary operands it must also be
// exact, so an operator that only reaches the catch-all Top fails by name.
func TestTransferContainsEveryOperator(t *testing.T) {
	samples := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, math.MaxFloat64, -math.MaxFloat64, 1, 3, -2.5,
	}
	concrete := func(op lang.BinKind, l, r float64) float64 {
		v, err := lang.Eval(&lang.Bin{Op: op, L: lang.C(l), R: lang.C(r)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for op := lang.BinKind(0); op < lang.NumBinKinds; op++ {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			for i, l := range samples {
				for j, r := range samples {
					want := concrete(op, l, r)
					point := binTransfer(op, ConstVal(l), ConstVal(r))
					if point.NaN || !point.I.Contains(want) {
						t.Errorf("%v %s %v = %v, transfer of the points gives %v", l, op, r, want, point)
					}
					wideL := ConstVal(l).Join(ConstVal(samples[(i+1)%len(samples)]))
					wideR := ConstVal(r).Join(ConstVal(samples[(j+1)%len(samples)]))
					if wide := binTransfer(op, wideL, wideR); wide.NaN || !wide.I.Contains(want) {
						t.Errorf("%v %s %v = %v, transfer of %v and %v gives %v", l, op, r, want, wideL, wideR, wide)
					}
				}
			}
			if got, want := binTransfer(op, ConstVal(3), ConstVal(-2.5)), concrete(op, 3, -2.5); got.I != Point(want) {
				t.Errorf("3 %s -2.5 = %v, transfer gives %v, want exactly that", op, want, got)
			}
		})
	}
}
