// Package stats provides the small statistical toolkit needed by the
// experiment harness: descriptive statistics, Pearson correlation of
// actuation vectors (Fig. 3), least-squares linear fits (Fig. 5), and the
// exponential force-model fit with adjusted R² (Fig. 6).
package stats

import (
	"errors"
	"math"

	"meda/internal/randx"
)

// ErrDegenerate is returned when a statistic is undefined for the input,
// e.g. correlation of a constant vector or a fit with too few points.
var ErrDegenerate = errors.New("stats: degenerate input")

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// SampleStdDev returns the sample (n−1) standard deviation, as used for the
// SD bars of Fig. 16.
func SampleStdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// MeanStd returns mean and sample standard deviation in one pass-friendly
// call (two passes internally for numerical clarity).
func MeanStd(xs []float64) (mean, sd float64) {
	return Mean(xs), SampleStdDev(xs)
}

// PearsonBool is Pearson correlation specialized to Boolean actuation
// vectors A_ij ∈ {0,1}^N (Sec. III-C). It avoids allocating float slices.
func PearsonBool(a, b []bool) (float64, error) {
	if len(a) != len(b) || len(a) == 0 {
		return 0, ErrDegenerate
	}
	n := float64(len(a))
	var na, nb, nab float64
	for i := range a {
		if a[i] {
			na++
		}
		if b[i] {
			nb++
		}
		if a[i] && b[i] {
			nab++
		}
	}
	pa, pb := na/n, nb/n
	va, vb := pa*(1-pa), pb*(1-pb)
	if isZero(va) || isZero(vb) {
		return 0, ErrDegenerate
	}
	cov := nab/n - pa*pb
	r := cov / math.Sqrt(va*vb)
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r, nil
}

// LinearFit holds the result of an ordinary least-squares line fit
// y ≈ Slope·x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLinear fits a least-squares line through the points (xs[i], ys[i]).
// Used to quantify the linear capacitance growth of Fig. 5.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return LinearFit{}, ErrDegenerate
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if isZero(sxx) {
		return LinearFit{}, ErrDegenerate
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	var ssRes, ssTot float64
	for i := range xs {
		pred := slope*xs[i] + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - my) * (ys[i] - my)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// ExpFit holds the result of fitting the force decay model of Eq. (2),
// F̄(n) = τ^(2n/c). Only the decay rate λ = −2·ln(τ)/c is identifiable from
// force-vs-actuation data alone; Tau and C report one representative
// parameterization obtained by pinning τ, matching how the paper reports
// (τ, c) pairs such as (0.556, 822.7).
type ExpFit struct {
	Lambda float64 // decay rate: F̄(n) = exp(−Lambda·n)
	Tau    float64 // pinned τ
	C      float64 // c = −2·ln(τ)/Lambda for the pinned τ
	R2Adj  float64 // adjusted R² of the fit in the original (force) domain
}

// Predict returns the fitted force at actuation count n.
func (f ExpFit) Predict(n float64) float64 { return math.Exp(-f.Lambda * n) }

// FitForceModel fits F̄(n) = τ^(2n/c) = exp(−λn) to measured (n, F̄) points
// by least squares in the log domain (weighted implicitly by the log
// transform, which is the standard approach for exponential decay). tauPin
// chooses the reported (τ, c) parameterization; the paper's fits use
// τ ≈ 0.53–0.56.
func FitForceModel(ns, fs []float64, tauPin float64) (ExpFit, error) {
	if len(ns) != len(fs) || len(ns) < 2 {
		return ExpFit{}, ErrDegenerate
	}
	if tauPin <= 0 || tauPin >= 1 {
		return ExpFit{}, errors.New("stats: tauPin must be in (0,1)")
	}
	// Fit ln F = −λ·n through the origin (F(0) = 1 by definition of
	// relative force).
	var sxx, sxy float64
	for i := range ns {
		if fs[i] <= 0 {
			continue // fully failed points carry no log information
		}
		sxx += ns[i] * ns[i]
		sxy += ns[i] * math.Log(fs[i])
	}
	if isZero(sxx) {
		return ExpFit{}, ErrDegenerate
	}
	lambda := -sxy / sxx
	fit := ExpFit{Lambda: lambda, Tau: tauPin}
	if !isZero(lambda) {
		fit.C = -2 * math.Log(tauPin) / lambda
	} else {
		fit.C = math.Inf(1)
	}
	fit.R2Adj = adjustedR2(ns, fs, fit.Predict, 1)
	return fit, nil
}

// adjustedR2 computes R²_adj = 1 − (1−R²)·(n−1)/(n−p−1) for a model with p
// parameters, evaluated in the original data domain.
func adjustedR2(xs, ys []float64, model func(float64) float64, p int) float64 {
	n := len(xs)
	if n <= p+1 {
		return math.NaN()
	}
	my := Mean(ys)
	var ssRes, ssTot float64
	for i := range xs {
		d := ys[i] - model(xs[i])
		ssRes += d * d
		t := ys[i] - my
		ssTot += t * t
	}
	if isZero(ssTot) {
		return math.NaN()
	}
	r2 := 1 - ssRes/ssTot
	return 1 - (1-r2)*float64(n-1)/float64(n-p-1)
}

// Histogram counts values into k equal-width bins over [lo, hi]; values
// outside the range are clamped into the edge bins.
func Histogram(xs []float64, lo, hi float64, k int) []int {
	bins := make([]int, k)
	if k == 0 || hi <= lo {
		return bins
	}
	w := (hi - lo) / float64(k)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= k {
			i = k - 1
		}
		bins[i]++
	}
	return bins
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation; xs need not be sorted (a copy is sorted internally).
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrDegenerate
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	insertionSort(cp)
	if q <= 0 {
		return cp[0], nil
	}
	if q >= 1 {
		return cp[len(cp)-1], nil
	}
	pos := q * float64(len(cp)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(cp) {
		return cp[i], nil
	}
	return cp[i]*(1-frac) + cp[i+1]*frac, nil
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// BootstrapCI estimates a two-sided confidence interval for the mean of xs
// by the percentile bootstrap: resamples of xs (with replacement) are drawn
// from src, and the (α/2, 1−α/2) quantiles of their means bound the
// interval. Used to put honest error bars on simulation experiments whose
// cycle counts are far from normal (aborts pile up at k_max).
func BootstrapCI(xs []float64, confidence float64, resamples int, src *randx.Source) (lo, hi float64, err error) {
	if len(xs) == 0 || resamples < 1 {
		return 0, 0, ErrDegenerate
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, 0, errors.New("stats: confidence must be in (0,1)")
	}
	means := make([]float64, resamples)
	for r := 0; r < resamples; r++ {
		sum := 0.0
		for i := 0; i < len(xs); i++ {
			sum += xs[src.IntN(len(xs))]
		}
		means[r] = sum / float64(len(xs))
	}
	alpha := 1 - confidence
	lo, err = Quantile(means, alpha/2)
	if err != nil {
		return 0, 0, err
	}
	hi, err = Quantile(means, 1-alpha/2)
	return lo, hi, err
}

// isZero is an exact sentinel comparison (medalint floatcmp): a variance or
// sum of squares that is exactly zero marks a degenerate input (constant
// series), which is a structural property, not a rounding accident.
func isZero(x float64) bool { return x == 0 }
