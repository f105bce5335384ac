// Package stats provides the curve-fitting and descriptive-statistics
// substrate used throughout the accelerator-wall models.
//
// The paper fits exponential (power-law) curves with least mean square errors
// in log space (Section III), quadratic curves for GPU frame-rate trends
// (Section IV-B), geometric means for architecture gain relations (Eq 3, 4),
// and linear / logarithmic Pareto-frontier projections (Eq 5, 6). The Go
// standard library offers none of these, so this package implements them from
// first principles on float64 slices.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInsufficientData is returned by fitting routines when fewer observations
// are supplied than the model has free parameters.
var ErrInsufficientData = errors.New("stats: insufficient data points for fit")

// ErrDomain is returned when observations violate a model's domain, for
// example non-positive values passed to a logarithmic fit.
var ErrDomain = errors.New("stats: observation outside model domain")

// Mean returns the arithmetic mean of xs. It returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// otherwise an error is returned. It returns an error for empty input.
//
// The computation runs in log space so products of many large gains (the
// paper multiplies per-application gain ratios across dozens of benchmarks)
// do not overflow.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrInsufficientData
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("%w: geometric mean requires positive values, got %g", ErrDomain, x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// Variance returns the population variance of xs (zero for fewer than two
// points).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// MSE returns the mean squared error between observations ys and model
// predictions yhat. The slices must have equal, non-zero length.
func MSE(ys, yhat []float64) (float64, error) {
	if len(ys) == 0 || len(ys) != len(yhat) {
		return 0, fmt.Errorf("%w: MSE needs equal-length non-empty slices (%d vs %d)", ErrInsufficientData, len(ys), len(yhat))
	}
	var sum float64
	for i := range ys {
		d := ys[i] - yhat[i]
		sum += d * d
	}
	return sum / float64(len(ys)), nil
}

// RSquared returns the coefficient of determination of predictions yhat
// against observations ys. A perfect fit yields 1. If ys has zero variance
// the result is 1 when predictions are exact and 0 otherwise.
func RSquared(ys, yhat []float64) (float64, error) {
	if len(ys) == 0 || len(ys) != len(yhat) {
		return 0, fmt.Errorf("%w: RSquared needs equal-length non-empty slices", ErrInsufficientData)
	}
	m := Mean(ys)
	var ssRes, ssTot float64
	for i := range ys {
		r := ys[i] - yhat[i]
		ssRes += r * r
		d := ys[i] - m
		ssTot += d * d
	}
	return rSquared(ssRes, ssTot), nil
}

// rSquared is R² from the residual and total sums of squares, with
// RSquared's zero-variance convention.
func rSquared(ssRes, ssTot float64) float64 {
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// Linear is a fitted line y = Alpha*x + Beta.
type Linear struct {
	Alpha float64 // slope
	Beta  float64 // intercept
	R2    float64 // coefficient of determination on the training data
}

// Eval returns Alpha*x + Beta.
func (l Linear) Eval(x float64) float64 { return l.Alpha*x + l.Beta }

// String renders the line in the y = a·x + b form the paper prints on its
// projection plots.
func (l Linear) String() string { return fmt.Sprintf("y = %.4g*x + %.4g", l.Alpha, l.Beta) }

// FitLinear computes the ordinary-least-squares line through (xs, ys).
// It requires at least two points and non-degenerate x values.
func FitLinear(xs, ys []float64) (Linear, error) {
	if len(xs) != len(ys) {
		return Linear{}, fmt.Errorf("%w: x/y length mismatch (%d vs %d)", ErrInsufficientData, len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Linear{}, fmt.Errorf("%w: linear fit needs >= 2 points, got %d", ErrInsufficientData, len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return Linear{}, fmt.Errorf("%w: all x values identical", ErrDomain)
	}
	l := Linear{Alpha: sxy / sxx}
	l.Beta = my - l.Alpha*mx
	// R² without a prediction slice: RSquared's loop over l.Eval(xs[i]),
	// in its summation order, so the value is bit-identical to it.
	var ssRes, ssTot float64
	for i, x := range xs {
		r := ys[i] - l.Eval(x)
		ssRes += r * r
		d := ys[i] - my
		ssTot += d * d
	}
	l.R2 = rSquared(ssRes, ssTot)
	return l, nil
}

// PowerLaw is a fitted curve y = A * x^B, the form of the paper's transistor
// count model TC(D) = 4.99e9 * D^0.877 (Fig 3b) and the TDP curves of
// Fig 3c.
type PowerLaw struct {
	A  float64
	B  float64
	R2 float64 // R² in log-log space
}

// Eval returns A * x^B.
func (p PowerLaw) Eval(x float64) float64 { return p.A * math.Pow(x, p.B) }

// String renders the curve in the A·x^B form used in the paper's figures.
func (p PowerLaw) String() string { return fmt.Sprintf("y = %.3g*x^%.3g", p.A, p.B) }

// FitPowerLaw fits y = A*x^B by logarithmic regression with least mean
// square errors, exactly the procedure described in Section III ("we use
// logarithmic regression with least mean square errors (MSE) to fit the
// exponential curve of transistor count"). All observations must be
// strictly positive.
func FitPowerLaw(xs, ys []float64) (PowerLaw, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return PowerLaw{}, fmt.Errorf("%w: power-law fit needs >= 2 paired points", ErrInsufficientData)
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return PowerLaw{}, fmt.Errorf("%w: power-law fit requires positive observations (x=%g, y=%g)", ErrDomain, xs[i], ys[i])
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	return FitPowerLawLogs(lx, ly)
}

// FitPowerLawLogs is FitPowerLaw over observations already taken to log
// space (lx[i] = ln x[i], ly[i] = ln y[i]). Callers that refit subsets of
// one dataset many times take the logarithms once; the fit is bit-identical
// to FitPowerLaw over the original values.
func FitPowerLawLogs(lx, ly []float64) (PowerLaw, error) {
	if len(lx) != len(ly) || len(lx) < 2 {
		return PowerLaw{}, fmt.Errorf("%w: power-law fit needs >= 2 paired points", ErrInsufficientData)
	}
	line, err := FitLinear(lx, ly)
	if err != nil {
		return PowerLaw{}, err
	}
	return PowerLaw{A: math.Exp(line.Beta), B: line.Alpha, R2: line.R2}, nil
}

// Logarithmic is a fitted curve y = Alpha*ln(x) + Beta, the paper's
// sub-linear Pareto projection model (Eq 6).
type Logarithmic struct {
	Alpha float64
	Beta  float64
	R2    float64
}

// Eval returns Alpha*ln(x) + Beta.
func (l Logarithmic) Eval(x float64) float64 { return l.Alpha*math.Log(x) + l.Beta }

// String renders the curve in the a·log(x) + b form of Eq 6.
func (l Logarithmic) String() string { return fmt.Sprintf("y = %.4g*log(x) + %.4g", l.Alpha, l.Beta) }

// FitLogarithmic fits y = Alpha*ln(x) + Beta by OLS on (ln x, y). All x must
// be strictly positive.
func FitLogarithmic(xs, ys []float64) (Logarithmic, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return Logarithmic{}, fmt.Errorf("%w: logarithmic fit needs >= 2 paired points", ErrInsufficientData)
	}
	lx := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return Logarithmic{}, fmt.Errorf("%w: logarithmic fit requires positive x, got %g", ErrDomain, x)
		}
		lx[i] = math.Log(x)
	}
	line, err := FitLinear(lx, ys)
	if err != nil {
		return Logarithmic{}, err
	}
	return Logarithmic{Alpha: line.Alpha, Beta: line.Beta, R2: line.R2}, nil
}

// Quadratic is a fitted parabola y = A*x² + B*x + C, used for the GPU
// frame-rate and CSR trend curves of Fig 5 ("we use quadratic curve fitting
// to construct curves for the reported frame-rates and CSR").
type Quadratic struct {
	A, B, C float64
	R2      float64
}

// Eval returns A*x² + B*x + C.
func (q Quadratic) Eval(x float64) float64 { return (q.A*x+q.B)*x + q.C }

// String renders the parabola coefficients.
func (q Quadratic) String() string {
	return fmt.Sprintf("y = %.4g*x^2 + %.4g*x + %.4g", q.A, q.B, q.C)
}

// FitQuadratic computes the least-squares parabola through (xs, ys) by
// solving the 3x3 normal equations with Gaussian elimination. It requires at
// least three points with at least three distinct x values.
func FitQuadratic(xs, ys []float64) (Quadratic, error) {
	if len(xs) != len(ys) || len(xs) < 3 {
		return Quadratic{}, fmt.Errorf("%w: quadratic fit needs >= 3 paired points", ErrInsufficientData)
	}
	// Accumulate the moments of the normal equations.
	var s0, s1, s2, s3, s4, t0, t1, t2 float64
	s0 = float64(len(xs))
	for i := range xs {
		x := xs[i]
		x2 := x * x
		s1 += x
		s2 += x2
		s3 += x2 * x
		s4 += x2 * x2
		t0 += ys[i]
		t1 += x * ys[i]
		t2 += x2 * ys[i]
	}
	m := [3][4]float64{
		{s4, s3, s2, t2},
		{s3, s2, s1, t1},
		{s2, s1, s0, t0},
	}
	coef, err := solve3(m)
	if err != nil {
		return Quadratic{}, err
	}
	q := Quadratic{A: coef[0], B: coef[1], C: coef[2]}
	yhat := make([]float64, len(xs))
	for i, x := range xs {
		yhat[i] = q.Eval(x)
	}
	q.R2, _ = RSquared(ys, yhat)
	return q, nil
}

// solve3 solves a 3-variable linear system given as an augmented 3x4 matrix
// using Gaussian elimination with partial pivoting.
func solve3(m [3][4]float64) ([3]float64, error) {
	for col := 0; col < 3; col++ {
		// Partial pivot: move the row with the largest magnitude entry up.
		pivot := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		m[col], m[pivot] = m[pivot], m[col]
		if m[col][col] == 0 {
			return [3]float64{}, fmt.Errorf("%w: singular normal equations (degenerate x values)", ErrDomain)
		}
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c < 4; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	var out [3]float64
	for i := 0; i < 3; i++ {
		out[i] = m[i][3] / m[i][i]
	}
	return out, nil
}

// Point is a two-dimensional observation used by the Pareto-frontier
// routines: X is the physical capability axis, Y the observed gain axis.
type Point struct {
	X, Y float64
}

// ParetoFrontier returns the efficient points of pts under the dominance
// order used by the paper's projection study: point p dominates q when p
// achieves at least as much gain (Y) with at most the physical capability
// (X) of q, strictly better on one axis. The result — the record-setting
// chips — is sorted by ascending X and strictly increasing in Y, the
// staircase Section VII fits its linear and logarithmic projections through.
// Points sharing an X keep only their best-Y representative.
func ParetoFrontier(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	// Sort by X ascending; for equal X put the largest Y first so the
	// running-max sweep keeps it and drops the rest.
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y > sorted[j].Y
	})
	// Left-to-right sweep keeping every point that sets a new gain record:
	// such a point cannot be matched by anything with less-or-equal X.
	var frontier []Point
	best := math.Inf(-1)
	for _, p := range sorted {
		if p.Y > best {
			frontier = append(frontier, p)
			best = p.Y
		}
	}
	return frontier
}

// Dominates reports whether p dominates q: p reaches at least the gain of q
// (Y) using at most the physical capability of q (X), strictly better on at
// least one axis.
func Dominates(p, q Point) bool {
	return p.X <= q.X && p.Y >= q.Y && (p.X < q.X || p.Y > q.Y)
}

// Normalize divides every element of xs by the first element, producing the
// "relative to the oldest chip" series the paper plots everywhere. It
// returns an error if xs is empty or xs[0] is zero.
func Normalize(xs []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrInsufficientData
	}
	if xs[0] == 0 {
		return nil, fmt.Errorf("%w: cannot normalize by zero baseline", ErrDomain)
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / xs[0]
	}
	return out, nil
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. The input is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	qs, err := Quantiles(xs, p)
	if err != nil {
		return 0, err
	}
	return qs[0], nil
}

// Quantiles returns the requested percentiles (each in 0..100) of xs using
// linear interpolation between closest ranks, the same estimator as
// Percentile but sorting a single copy of the input once for all of them.
// The result preserves the order of ps; the input is not modified.
//
// Both the projection sensitivity sweep and the Monte Carlo replicate
// reducer band their samples with this helper, so every reported quantile
// in the repo uses one estimator.
func Quantiles(xs []float64, ps ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrInsufficientData
	}
	for _, p := range ps {
		if p < 0 || p > 100 {
			return nil, fmt.Errorf("%w: percentile %g outside [0,100]", ErrDomain, p)
		}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = quantileSorted(sorted, p)
	}
	return out, nil
}

// quantileSorted reads the p-th percentile out of an already-sorted,
// non-empty sample.
func quantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Interp linearly interpolates the y value at x over the piecewise-linear
// curve defined by knot coordinates (xs, ys). xs must be strictly
// increasing. Values outside the knot range are linearly extrapolated from
// the nearest segment.
func Interp(xs, ys []float64, x float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, fmt.Errorf("%w: interpolation needs >= 2 knots", ErrInsufficientData)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return 0, fmt.Errorf("%w: interpolation knots must be strictly increasing", ErrDomain)
		}
	}
	// Locate the segment; clamp to the first/last for extrapolation.
	i := sort.SearchFloat64s(xs, x)
	switch {
	case i == 0:
		i = 1
	case i >= len(xs):
		i = len(xs) - 1
	}
	x0, x1 := xs[i-1], xs[i]
	y0, y1 := ys[i-1], ys[i]
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0), nil
}

// GeoInterp interpolates in log-y space over knots (xs, ys): the result is
// exponential between knots, matching how per-node scaling factors behave
// between CMOS nodes. All ys must be positive.
func GeoInterp(xs, ys []float64, x float64) (float64, error) {
	ly := make([]float64, len(ys))
	for i, y := range ys {
		if y <= 0 {
			return 0, fmt.Errorf("%w: geometric interpolation requires positive y", ErrDomain)
		}
		ly[i] = math.Log(y)
	}
	v, err := Interp(xs, ly, x)
	if err != nil {
		return 0, err
	}
	return math.Exp(v), nil
}
