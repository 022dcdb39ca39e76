package g5

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestRoundMantissaExact(t *testing.T) {
	// Values already representable in few bits pass through.
	for _, v := range []float64{1, 2, 0.5, 1.5, -3, 0} {
		if got := RoundMantissa(v, 4); got != v {
			t.Errorf("RoundMantissa(%v, 4) = %v", v, got)
		}
	}
}

func TestRoundMantissaKnown(t *testing.T) {
	// 1.0625 = 1 + 1/16 with 2 mantissa bits rounds to 1.0.
	if got := RoundMantissa(1.0625, 2); got != 1.0 {
		t.Errorf("got %v, want 1.0", got)
	}
	// 1.1875 = 1 + 3/16 with 2 bits rounds to 1.25.
	if got := RoundMantissa(1.1875, 2); got != 1.25 {
		t.Errorf("got %v, want 1.25", got)
	}
	// Carry across a power of two: 1.96875 with 2 bits rounds to 2.0.
	if got := RoundMantissa(1.96875, 2); got != 2.0 {
		t.Errorf("got %v, want 2.0", got)
	}
}

func TestRoundMantissaSpecials(t *testing.T) {
	if got := RoundMantissa(math.Inf(1), 4); !math.IsInf(got, 1) {
		t.Errorf("Inf -> %v", got)
	}
	if got := RoundMantissa(math.NaN(), 4); !math.IsNaN(got) {
		t.Errorf("NaN -> %v", got)
	}
	if got := RoundMantissa(1.23456, 52); got != 1.23456 {
		t.Errorf("52 bits should pass through, got %v", got)
	}
}

// roundMantissaRef is RoundMantissa with every special value tested
// explicitly, the form the single exponent test replaced.
func roundMantissaRef(v float64, bits uint) float64 {
	if bits >= 52 || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	b := math.Float64bits(v)
	shift := 52 - bits
	round := uint64(1) << (shift - 1)
	mantAndExp := b &^ (1 << 63)
	sign := b & (1 << 63)
	mantAndExp += round
	mantAndExp &^= (uint64(1) << shift) - 1
	return math.Float64frombits(sign | mantAndExp)
}

// TestRoundMantissaMatchesReference pins the one-branch RoundMantissa
// bitwise to the explicit-special-case form: signed zeros, subnormals,
// the largest finite values, infinities, NaN payloads and random bit
// patterns, at every width.
func TestRoundMantissaMatchesReference(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), 1, -1.96875}
	r := rng.New(3)
	for range 2000 {
		vals = append(vals, math.Float64frombits(r.Uint64()))
	}
	for bits := uint(0); bits <= 53; bits++ {
		for _, v := range vals {
			got, want := RoundMantissa(v, bits), roundMantissaRef(v, bits)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("RoundMantissa(%#x, %d) = %#x, reference %#x",
					math.Float64bits(v), bits, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// Property: relative rounding error is bounded by 2^-(bits+1) (half an
// ulp at the given precision) and the sign is preserved.
func TestRoundMantissaErrorBoundProperty(t *testing.T) {
	f := func(x float64, bits uint) bool {
		// The bound holds for normal floats away from overflow; the
		// doc comment scopes out ±MaxFloat64 neighbourhoods and
		// subnormals.
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 ||
			math.Abs(x) > 1e300 || math.Abs(x) < 1e-300 {
			return true
		}
		b := 2 + bits%10 // 2..11 bits
		got := RoundMantissa(x, b)
		rel := math.Abs(got-x) / math.Abs(x)
		if rel > math.Exp2(-float64(b))/2*(1+1e-12) {
			return false
		}
		return math.Signbit(got) == math.Signbit(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: rounding is idempotent.
func TestRoundMantissaIdempotentProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		once := RoundMantissa(x, 7)
		return RoundMantissa(once, 7) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: rounding is monotone (order-preserving) for positive values.
func TestRoundMantissaMonotoneProperty(t *testing.T) {
	r := rng.New(4)
	prevIn, prevOut := 0.0, 0.0
	for i := 0; i < 10000; i++ {
		x := math.Exp(r.Uniform(-20, 20))
		y := RoundMantissa(x, 6)
		if i > 0 {
			if (x > prevIn && y < prevOut) || (x < prevIn && y > prevOut) {
				t.Fatalf("monotonicity violated: f(%v)=%v but f(%v)=%v", prevIn, prevOut, x, y)
			}
		}
		prevIn, prevOut = x, y
	}
}

func TestFixedGridQuantize(t *testing.T) {
	g := NewFixedGrid(-1, 1, 4) // 16 steps of 0.125
	if g.Step() != 0.125 {
		t.Errorf("step = %v", g.Step())
	}
	v, ok := g.Quantize(0)
	if !ok || v != 0 {
		t.Errorf("Quantize(0) = %v, %v", v, ok)
	}
	v, ok = g.Quantize(0.06) // nearest grid point is 0.125*round(0.48)=0
	if !ok || v != 0.0 {
		t.Errorf("Quantize(0.06) = %v, %v", v, ok)
	}
	// Out of range clamps and reports.
	v, ok = g.Quantize(5)
	if ok {
		t.Error("out-of-range reported ok")
	}
	if v > 1 || v < 0.8 {
		t.Errorf("clamped value = %v", v)
	}
	v, ok = g.Quantize(-5)
	if ok || v != -1 {
		t.Errorf("low clamp = %v, %v", v, ok)
	}
}

// Property: quantisation error is bounded by half a step inside the range.
func TestFixedGridErrorBoundProperty(t *testing.T) {
	g := NewFixedGrid(-10, 10, 16)
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 9.99)
		v, ok := g.Quantize(x)
		return ok && math.Abs(v-x) <= g.Step()/2*(1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
