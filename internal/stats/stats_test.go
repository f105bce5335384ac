package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		return diff < tol
	}
	return diff/scale < tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 7},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Mean(tc.in); got != tc.want {
				t.Errorf("Mean(%v) = %g, want %g", tc.in, got, tc.want)
			}
		})
	}
}

func TestGeoMean(t *testing.T) {
	got, err := GeoMean([]float64{1, 100})
	if err != nil {
		t.Fatalf("GeoMean: %v", err)
	}
	if !almostEq(got, 10, 1e-12) {
		t.Errorf("GeoMean(1,100) = %g, want 10", got)
	}
}

func TestGeoMeanRejectsNonPositive(t *testing.T) {
	if _, err := GeoMean([]float64{1, 0}); !errors.Is(err, ErrDomain) {
		t.Errorf("GeoMean with zero should return ErrDomain, got %v", err)
	}
	if _, err := GeoMean(nil); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("GeoMean(nil) should return ErrInsufficientData, got %v", err)
	}
}

func TestGeoMeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			v := math.Abs(r)
			if v > 0 && !math.IsInf(v, 0) && v < 1e100 && v > 1e-100 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g, err := GeoMean(xs)
		if err != nil {
			return false
		}
		min, max := xs[0], xs[0]
		for _, x := range xs {
			min, max = math.Min(min, x), math.Max(max, x)
		}
		return g >= min*(1-1e-9) && g <= max*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance of single point = %g, want 0", got)
	}
}

func TestMSE(t *testing.T) {
	got, err := MSE([]float64{1, 2, 3}, []float64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 4.0/3.0, 1e-12) {
		t.Errorf("MSE = %g, want 4/3", got)
	}
	if _, err := MSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("MSE with mismatched lengths should error")
	}
}

func TestRSquaredPerfectFit(t *testing.T) {
	ys := []float64{1, 2, 3, 4}
	r2, err := RSquared(ys, ys)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != 1 {
		t.Errorf("R² of perfect fit = %g, want 1", r2)
	}
}

func TestRSquaredZeroVariance(t *testing.T) {
	ys := []float64{5, 5, 5}
	if r2, _ := RSquared(ys, []float64{5, 5, 5}); r2 != 1 {
		t.Errorf("R² exact constant = %g, want 1", r2)
	}
	if r2, _ := RSquared(ys, []float64{5, 5, 6}); r2 != 0 {
		t.Errorf("R² inexact constant = %g, want 0", r2)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5*x - 1.25
	}
	l, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(l.Alpha, 2.5, 1e-12) || !almostEq(l.Beta, -1.25, 1e-12) {
		t.Errorf("FitLinear = (%g, %g), want (2.5, -1.25)", l.Alpha, l.Beta)
	}
	if !almostEq(l.R2, 1, 1e-12) {
		t.Errorf("R² = %g, want 1", l.R2)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	if _, err := FitLinear([]float64{3, 3, 3}, []float64{1, 2, 3}); !errors.Is(err, ErrDomain) {
		t.Errorf("identical x should return ErrDomain, got %v", err)
	}
	if _, err := FitLinear([]float64{1}, []float64{2}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("single point should return ErrInsufficientData, got %v", err)
	}
}

// FitLinear on noiseless lines must recover the generating coefficients.
// This is the property that justifies all the log-space fits built on it.
func TestFitLinearRecoversLineProperty(t *testing.T) {
	f := func(a, b float64, n uint8) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e6 {
			return true
		}
		if math.IsNaN(b) || math.IsInf(b, 0) || math.Abs(b) > 1e6 {
			return true
		}
		count := int(n%20) + 2
		xs := make([]float64, count)
		ys := make([]float64, count)
		for i := range xs {
			xs[i] = float64(i)
			ys[i] = a*xs[i] + b
		}
		l, err := FitLinear(xs, ys)
		if err != nil {
			return false
		}
		return almostEq(l.Alpha, a, 1e-6) && almostEq(l.Beta, b, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FitLinear's R² is computed without a prediction slice; it must equal
// RSquared over l.Eval predictions bit for bit, because the Monte Carlo
// refits feed it into pinned digests. The inputs span noisy lines, exact
// lines and constant ys (RSquared's zero-variance branch).
func TestFitLinearR2MatchesRSquared(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(200)
		scale := math.Pow(10, float64(rng.Intn(13)-6))
		a, b := rng.NormFloat64()*scale, rng.NormFloat64()*scale
		noise := []float64{0, 1e-9, 0.1, 10}[trial%4]
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * scale
			ys[i] = a*xs[i] + b + rng.NormFloat64()*noise*scale
			if trial%25 == 0 {
				ys[i] = b
			}
		}
		l, err := FitLinear(xs, ys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		yhat := make([]float64, n)
		for i, x := range xs {
			yhat[i] = l.Eval(x)
		}
		want, err := RSquared(ys, yhat)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(l.R2) != math.Float64bits(want) {
			t.Fatalf("trial %d (n=%d): FitLinear R² = %v, RSquared = %v", trial, n, l.R2, want)
		}
	}
}

func TestFitPowerLawRecoversPaperModel(t *testing.T) {
	// The published Fig 3b model: TC(D) = 4.99e9 * D^0.877.
	gen := PowerLaw{A: 4.99e9, B: 0.877}
	xs := []float64{0.01, 0.1, 0.5, 1, 5, 10, 50, 100}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = gen.Eval(x)
	}
	fit, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.A, gen.A, 1e-9) || !almostEq(fit.B, gen.B, 1e-9) {
		t.Errorf("FitPowerLaw = (%g, %g), want (%g, %g)", fit.A, fit.B, gen.A, gen.B)
	}
}

func TestFitPowerLawRejectsNonPositive(t *testing.T) {
	if _, err := FitPowerLaw([]float64{1, -2}, []float64{1, 2}); !errors.Is(err, ErrDomain) {
		t.Errorf("negative x should return ErrDomain, got %v", err)
	}
	if _, err := FitPowerLaw([]float64{1, 2}, []float64{0, 2}); !errors.Is(err, ErrDomain) {
		t.Errorf("zero y should return ErrDomain, got %v", err)
	}
}

// Property: power-law fit on exact power-law data recovers (a, b).
func TestFitPowerLawRecoveryProperty(t *testing.T) {
	f := func(la, b float64) bool {
		// Constrain generated parameters to a numerically sane band.
		if math.IsNaN(la) || math.IsInf(la, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		a := math.Exp(math.Mod(la, 20)) // a in (e^-20, e^20)
		b = math.Mod(b, 3)
		xs := []float64{0.5, 1, 2, 4, 8, 16}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a * math.Pow(x, b)
		}
		fit, err := FitPowerLaw(xs, ys)
		if err != nil {
			return false
		}
		return almostEq(fit.A, a, 1e-9) && almostEq(fit.B, b, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitLogarithmicExact(t *testing.T) {
	xs := []float64{1, math.E, math.E * math.E, 10, 100}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*math.Log(x) + 7
	}
	fit, err := FitLogarithmic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Alpha, 3, 1e-12) || !almostEq(fit.Beta, 7, 1e-12) {
		t.Errorf("FitLogarithmic = (%g, %g), want (3, 7)", fit.Alpha, fit.Beta)
	}
}

func TestFitLogarithmicRejectsNonPositiveX(t *testing.T) {
	if _, err := FitLogarithmic([]float64{0, 1}, []float64{1, 2}); !errors.Is(err, ErrDomain) {
		t.Errorf("zero x should return ErrDomain, got %v", err)
	}
}

func TestFitQuadraticExact(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1.5*x*x - 2*x + 0.5
	}
	q, err := FitQuadratic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(q.A, 1.5, 1e-9) || !almostEq(q.B, -2, 1e-9) || !almostEq(q.C, 0.5, 1e-9) {
		t.Errorf("FitQuadratic = (%g, %g, %g), want (1.5, -2, 0.5)", q.A, q.B, q.C)
	}
	if !almostEq(q.R2, 1, 1e-9) {
		t.Errorf("R² = %g, want 1", q.R2)
	}
}

func TestFitQuadraticDegenerate(t *testing.T) {
	// All x identical: singular normal equations.
	if _, err := FitQuadratic([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate quadratic fit should error")
	}
	if _, err := FitQuadratic([]float64{1, 2}, []float64{1, 2}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("two points should return ErrInsufficientData, got %v", err)
	}
}

func TestParetoFrontierBasic(t *testing.T) {
	pts := []Point{
		{1, 1}, {2, 3}, {3, 2}, {4, 5}, {2.5, 4.5}, {4, 4},
	}
	f := ParetoFrontier(pts)
	want := []Point{{1, 1}, {2, 3}, {2.5, 4.5}, {4, 5}}
	if len(f) != len(want) {
		t.Fatalf("frontier = %v, want %v", f, want)
	}
	for i := range want {
		if f[i] != want[i] {
			t.Errorf("frontier[%d] = %v, want %v", i, f[i], want[i])
		}
	}
}

func TestParetoFrontierEmptyAndSingle(t *testing.T) {
	if f := ParetoFrontier(nil); f != nil {
		t.Errorf("frontier of nil = %v, want nil", f)
	}
	f := ParetoFrontier([]Point{{1, 2}})
	if len(f) != 1 || f[0] != (Point{1, 2}) {
		t.Errorf("frontier of single = %v", f)
	}
}

func TestParetoFrontierDuplicateX(t *testing.T) {
	f := ParetoFrontier([]Point{{1, 1}, {1, 5}, {1, 3}})
	if len(f) != 1 || f[0] != (Point{1, 5}) {
		t.Errorf("frontier with duplicate X = %v, want [{1 5}]", f)
	}
}

// Property invariants from DESIGN.md: no frontier point is dominated, every
// non-frontier point is dominated by some frontier point, and the frontier is
// a strictly increasing staircase.
func TestParetoFrontierInvariants(t *testing.T) {
	f := func(coords []float64) bool {
		var pts []Point
		for i := 0; i+1 < len(coords); i += 2 {
			x, y := coords[i], coords[i+1]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			pts = append(pts, Point{x, y})
		}
		frontier := ParetoFrontier(pts)
		onFrontier := make(map[Point]bool, len(frontier))
		for _, p := range frontier {
			onFrontier[p] = true
		}
		// Staircase: strictly increasing in both coordinates.
		for i := 1; i < len(frontier); i++ {
			if frontier[i].X <= frontier[i-1].X || frontier[i].Y <= frontier[i-1].Y {
				return false
			}
		}
		// No frontier point dominated by any input point.
		for _, fp := range frontier {
			for _, p := range pts {
				if Dominates(p, fp) {
					return false
				}
			}
		}
		// Every non-frontier point dominated by (or equal to) a frontier point.
		for _, p := range pts {
			if onFrontier[p] {
				continue
			}
			covered := false
			for _, fp := range frontier {
				if Dominates(fp, p) || fp == p {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	got, err := Normalize([]float64{4, 8, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 0.5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Normalize[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if _, err := Normalize([]float64{0, 1}); !errors.Is(err, ErrDomain) {
		t.Errorf("zero baseline should return ErrDomain, got %v", err)
	}
	if _, err := Normalize(nil); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("empty Normalize should return ErrInsufficientData, got %v", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75},
	}
	for _, tc := range cases {
		got, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, tc.want, 1e-12) {
			t.Errorf("Percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if _, err := Percentile(xs, 101); !errors.Is(err, ErrDomain) {
		t.Errorf("percentile 101 should return ErrDomain, got %v", err)
	}
}

func TestInterp(t *testing.T) {
	xs := []float64{0, 10, 20}
	ys := []float64{0, 100, 150}
	cases := []struct{ x, want float64 }{
		{5, 50}, {10, 100}, {15, 125},
		{-5, -50}, // extrapolate left
		{25, 175}, // extrapolate right
	}
	for _, tc := range cases {
		got, err := Interp(xs, ys, tc.x)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, tc.want, 1e-12) {
			t.Errorf("Interp(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
}

func TestInterpRejectsUnsortedKnots(t *testing.T) {
	if _, err := Interp([]float64{0, 0}, []float64{1, 2}, 0.5); !errors.Is(err, ErrDomain) {
		t.Errorf("duplicate knots should return ErrDomain, got %v", err)
	}
}

func TestGeoInterpExponentialBetweenKnots(t *testing.T) {
	// Knots at (0, 1) and (2, 100): geometric midpoint at x=1 must be 10.
	got, err := GeoInterp([]float64{0, 2}, []float64{1, 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 10, 1e-12) {
		t.Errorf("GeoInterp midpoint = %g, want 10", got)
	}
	if _, err := GeoInterp([]float64{0, 1}, []float64{0, 1}, 0.5); !errors.Is(err, ErrDomain) {
		t.Errorf("zero y should return ErrDomain, got %v", err)
	}
}

func TestStringers(t *testing.T) {
	// Stringers exist so fitted models can be printed on experiment rows;
	// just ensure they produce non-empty output.
	for _, s := range []fmt.Stringer{
		Linear{Alpha: 1, Beta: 2},
		PowerLaw{A: 1, B: 2},
		Logarithmic{Alpha: 1, Beta: 2},
		Quadratic{A: 1, B: 2, C: 3},
	} {
		if s.String() == "" {
			t.Errorf("%T.String() is empty", s)
		}
	}
}

func TestQuantilesMatchesPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 9, 7}
	ps := []float64{0, 12.5, 25, 50, 75, 95, 100}
	got, err := Quantiles(xs, ps...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ps) {
		t.Fatalf("got %d quantiles for %d probes", len(got), len(ps))
	}
	for i, p := range ps {
		want, err := Percentile(xs, p)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("Quantiles[%g] = %g, Percentile = %g", p, got[i], want)
		}
	}
}

func TestQuantilesPreservesProbeOrder(t *testing.T) {
	// Probes deliberately out of order: results must follow the probes,
	// not the sorted data.
	got, err := Quantiles([]float64{1, 2, 3, 4}, 100, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 1, 2.5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Quantiles result[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestQuantilesInputUnmodified(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantiles(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantiles sorted the caller's slice: %v", xs)
	}
}

func TestQuantilesErrors(t *testing.T) {
	if _, err := Quantiles(nil, 50); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("empty input should return ErrInsufficientData, got %v", err)
	}
	if _, err := Quantiles([]float64{1, 2}, 50, 101); !errors.Is(err, ErrDomain) {
		t.Errorf("probe 101 should return ErrDomain, got %v", err)
	}
	if _, err := Quantiles([]float64{1, 2}, -1); !errors.Is(err, ErrDomain) {
		t.Errorf("probe -1 should return ErrDomain, got %v", err)
	}
}
