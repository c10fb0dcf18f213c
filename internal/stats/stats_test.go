package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	s.AddAll([]float64{4, 1, 3, 2})
	if s.N() != 4 {
		t.Fatalf("N = %d, want 4", s.N())
	}
	approx(t, s.Mean(), 2.5, 1e-12, "mean")
	approx(t, s.Sum(), 10, 1e-12, "sum")
	approx(t, s.Min(), 1, 0, "min")
	approx(t, s.Max(), 4, 0, "max")
	approx(t, s.Variance(), 1.25, 1e-12, "variance")
	approx(t, s.StdDev(), math.Sqrt(1.25), 1e-12, "stddev")
}

func TestEmptySampleSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample must report zeros")
	}
	sum := s.Summarize()
	if sum.N != 0 || sum.Mean != 0 {
		t.Fatal("empty summary must be zero")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var s Sample
	s.AddAll([]float64{10, 20, 30, 40, 50})
	approx(t, s.Percentile(0), 10, 0, "p0")
	approx(t, s.Percentile(100), 50, 0, "p100")
	approx(t, s.Percentile(50), 30, 1e-12, "p50")
	approx(t, s.Percentile(25), 20, 1e-12, "p25")
	approx(t, s.Percentile(10), 14, 1e-12, "p10 interpolated")
}

func TestPercentileSingleValue(t *testing.T) {
	var s Sample
	s.Add(42)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		approx(t, s.Percentile(p), 42, 0, "single-value percentile")
	}
}

func TestAddAfterPercentileResorts(t *testing.T) {
	var s Sample
	s.AddAll([]float64{3, 1})
	_ = s.Percentile(50)
	s.Add(2)
	approx(t, s.Percentile(50), 2, 1e-12, "median after late add")
}

func TestSummarizeOrdering(t *testing.T) {
	var s Sample
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	m := s.Summarize()
	if !(m.P1 <= m.P25 && m.P25 <= m.P75 && m.P75 <= m.P99) {
		t.Fatalf("percentiles out of order: %+v", m)
	}
	approx(t, m.Mean, 500.5, 1e-9, "mean of 1..1000")
}

func TestPercentError(t *testing.T) {
	approx(t, PercentError(102, 100), 2, 1e-12, "basic")
	approx(t, PercentError(98, 100), 2, 1e-12, "symmetric")
	approx(t, PercentError(0, 0), 0, 0, "zero/zero")
	if !math.IsInf(PercentError(1, 0), 1) {
		t.Fatal("nonzero/zero should be +Inf")
	}
}

func TestPercentChange(t *testing.T) {
	approx(t, PercentChange(150, 100), 50, 1e-12, "up")
	approx(t, PercentChange(80, 100), -20, 1e-12, "down")
	approx(t, PercentChange(5, 0), 0, 0, "zero base")
}

func TestCounterRate(t *testing.T) {
	var c Counter
	for i := 0; i < 60; i++ {
		c.Tick(float64(i) * 0.5) // ticks at 0, 0.5, ..., 29.5s
	}
	if c.Count() != 60 {
		t.Fatalf("Count = %d, want 60", c.Count())
	}
	approx(t, c.Rate(30), 2.0, 1e-9, "2 events/sec over 30s")
	if c.Rate(0) != 0 {
		t.Fatal("rate with horizon before first tick must be 0")
	}
}

func TestCounterEmpty(t *testing.T) {
	var c Counter
	if c.Rate(10) != 0 || c.Count() != 0 {
		t.Fatal("empty counter must be zero")
	}
}

func TestMeanGeoMean(t *testing.T) {
	approx(t, Mean([]float64{1, 2, 3}), 2, 1e-12, "mean")
	approx(t, Mean(nil), 0, 0, "mean empty")
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 uint8) bool {
		var s Sample
		ok := false
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				s.Add(x)
				ok = true
			}
		}
		if !ok {
			return true
		}
		a, b := float64(p1%101), float64(p2%101)
		if a > b {
			a, b = b, a
		}
		va, vb := s.Percentile(a), s.Percentile(b)
		return va <= vb+1e-9 && va >= s.Min()-1e-9 && vb <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		cnt := 0
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				s.Add(x)
				cnt++
			}
		}
		if cnt == 0 {
			return true
		}
		return s.Mean() >= s.Min()-1e-6 && s.Mean() <= s.Max()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Values returns a sorted copy that does not alias internals.
func TestValuesSortedCopyProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		for _, x := range raw {
			if !math.IsNaN(x) {
				s.Add(x)
			}
		}
		v := s.Values()
		if !sort.Float64sAreSorted(v) {
			return false
		}
		if len(v) > 0 {
			v[0] = math.Inf(-1)
			if len(s.Values()) > 0 && math.IsInf(s.Values()[0], -1) {
				return false // mutation leaked into the sample
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanCI95(t *testing.T) {
	var s Sample
	s.AddAll([]float64{10, 12, 14})
	mean, half := s.MeanCI95()
	if mean != 12 {
		t.Fatalf("mean = %v, want 12", mean)
	}
	// sd (unbiased) = 2, t(df=2) = 4.303 → half = 4.303*2/sqrt(3) ≈ 4.969
	if half < 4.9 || half > 5.0 {
		t.Fatalf("CI half-width = %v, want ≈4.97", half)
	}

	var one Sample
	one.Add(5)
	if _, h := one.MeanCI95(); h != 0 {
		t.Fatalf("single observation cannot bound the mean, got half-width %v", h)
	}
}

func TestTQuantile95(t *testing.T) {
	if got := TQuantile95(1); got != 12.706 {
		t.Fatalf("t(1) = %v", got)
	}
	if got := TQuantile95(30); got != 2.042 {
		t.Fatalf("t(30) = %v", got)
	}
	if got := TQuantile95(1000); got != 1.96 {
		t.Fatalf("t(1000) = %v, want the normal limit", got)
	}
	if got := TQuantile95(0); got != 0 {
		t.Fatalf("t(0) = %v, want 0", got)
	}
}

// TestSampleEdgeCases sweeps the degenerate inputs — empty, single
// observation, all-equal observations, and tiny-n confidence intervals
// — through every summary query, requiring finite (never NaN/Inf)
// results and no panics. These are exactly the samples a short or idle
// measurement window produces.
func TestSampleEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		mean float64 // expected mean
		pAll float64 // expected value of every percentile
	}{
		{name: "empty", xs: nil, mean: 0, pAll: 0},
		{name: "single", xs: []float64{4.2}, mean: 4.2, pAll: 4.2},
		{name: "all-equal", xs: []float64{7, 7, 7, 7}, mean: 7, pAll: 7},
		{name: "all-zero", xs: []float64{0, 0, 0}, mean: 0, pAll: 0},
		{name: "two", xs: []float64{1, 3}, mean: 2, pAll: math.NaN()}, // pAll unchecked
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s Sample
			s.AddAll(tc.xs)
			if got := s.Mean(); got != tc.mean {
				t.Fatalf("Mean = %v, want %v", got, tc.mean)
			}
			for _, p := range []float64{-5, 0, 1, 25, 50, 75, 99, 100, 150} {
				q := s.Percentile(p)
				if math.IsNaN(q) || math.IsInf(q, 0) {
					t.Fatalf("Percentile(%v) = %v (not finite)", p, q)
				}
				if !math.IsNaN(tc.pAll) && q != tc.pAll {
					t.Fatalf("Percentile(%v) = %v, want %v", p, q, tc.pAll)
				}
			}
			sum := s.Summarize()
			for name, v := range map[string]float64{
				"Mean": sum.Mean, "P1": sum.P1, "P25": sum.P25, "P75": sum.P75, "P99": sum.P99,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("Summarize().%s = %v (not finite)", name, v)
				}
			}
			if sum.N != len(tc.xs) {
				t.Fatalf("Summarize().N = %d, want %d", sum.N, len(tc.xs))
			}
			mean, half := s.MeanCI95()
			if math.IsNaN(mean) || math.IsNaN(half) || math.IsInf(half, 0) {
				t.Fatalf("MeanCI95 = (%v, %v) (not finite)", mean, half)
			}
			if len(tc.xs) < 2 && half != 0 {
				t.Fatalf("n=%d must report a zero CI half-width, got %v", len(tc.xs), half)
			}
			if sd := s.StdDev(); math.IsNaN(sd) || sd < 0 {
				t.Fatalf("StdDev = %v", sd)
			}
			if mn, mx := s.Min(), s.Max(); mn > mx {
				t.Fatalf("Min %v > Max %v", mn, mx)
			}
		})
	}
}

// TestCI95AllEqual: zero spread must yield a zero interval, not NaN
// from catastrophic cancellation in the variance.
func TestCI95AllEqual(t *testing.T) {
	var s Sample
	for i := 0; i < 10; i++ {
		s.Add(1e9 + 0.25) // large offset stresses the sum-of-squares path
	}
	mean, half := s.MeanCI95()
	if math.IsNaN(mean) || math.IsNaN(half) {
		t.Fatalf("MeanCI95 = (%v, %v)", mean, half)
	}
	if half != 0 {
		t.Fatalf("all-equal sample must have a zero CI, got %v", half)
	}
}

func TestTableRendersAligned(t *testing.T) {
	tab := NewTable("policy", "fps")
	tab.Row("roundrobin", "31.5")
	tab.Rowf("binpack", "%.1f", 29.25)
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), out)
	}
	if len(lines[0]) != len(lines[1]) || len(lines[1]) != len(lines[2]) {
		t.Fatalf("columns not aligned:\n%s", out)
	}
	if !strings.Contains(lines[2], "29.2") {
		t.Fatalf("Rowf formatting lost: %q", lines[2])
	}
	// Short rows leave trailing columns empty; long rows truncate.
	uneven := NewTable("a", "b").Row("x").Row("y", "z", "extra")
	if s := uneven.String(); !strings.Contains(s, "x") || strings.Contains(s, "extra") {
		t.Fatalf("uneven rows mishandled:\n%s", s)
	}
}
