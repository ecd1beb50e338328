package stats

import (
	"math"
	"testing"
	"testing/quick"

	"meda/internal/randx"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if _, err := PearsonBool(nil, nil); err == nil {
		t.Error("PearsonBool(nil) should error")
	}
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("FitLinear with one point should error")
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("Quantile(nil) should error")
	}
}

func TestSampleStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := math.Sqrt(32.0 / 7.0)
	if sd := SampleStdDev(xs); !almost(sd, want, 1e-12) {
		t.Errorf("SampleStdDev = %v, want %v", sd, want)
	}
	if SampleStdDev([]float64{3}) != 0 {
		t.Error("single-point sample SD should be 0")
	}
}

func TestPearsonBoolMatchesFloat(t *testing.T) {
	src := randx.New(6)
	for trial := 0; trial < 100; trial++ {
		n := src.IntRange(4, 64)
		a := make([]bool, n)
		b := make([]bool, n)
		fa := make([]float64, n)
		fb := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = src.Bool(0.4)
			b[i] = src.Bool(0.6)
			if a[i] {
				fa[i] = 1
			}
			if b[i] {
				fb[i] = 1
			}
		}
		rb, errB := PearsonBool(a, b)
		// ρ from centered sums over the float vectors.
		ma, mb := Mean(fa), Mean(fb)
		var sab, saa, sbb float64
		for i := range fa {
			da, db := fa[i]-ma, fb[i]-mb
			sab += da * db
			saa += da * da
			sbb += db * db
		}
		if (errB == nil) != (saa != 0 && sbb != 0) {
			t.Fatalf("PearsonBool degenerate=%v with Σa²=%v Σb²=%v", errB != nil, saa, sbb)
		}
		rf := sab / math.Sqrt(saa*sbb)
		if errB == nil && !almost(rb, rf, 1e-9) {
			t.Fatalf("PearsonBool=%v Pearson=%v", rb, rf)
		}
	}
}

func TestPearsonConstantDegenerate(t *testing.T) {
	if _, err := PearsonBool([]bool{true, true, true}, []bool{true, false, true}); err != ErrDegenerate {
		t.Errorf("constant vector should be degenerate, got %v", err)
	}
	if _, err := PearsonBool([]bool{true, false}, []bool{true}); err != ErrDegenerate {
		t.Errorf("length mismatch should be degenerate, got %v", err)
	}
}

func TestPearsonBoundedProperty(t *testing.T) {
	src := randx.New(5)
	for trial := 0; trial < 200; trial++ {
		n := src.IntRange(3, 40)
		a := make([]bool, n)
		b := make([]bool, n)
		for i := range a {
			a[i] = src.Bool(0.5)
			b[i] = src.Bool(0.5)
		}
		r, err := PearsonBool(a, b)
		if err != nil {
			continue
		}
		if r < -1 || r > 1 || math.IsNaN(r) {
			t.Fatalf("PearsonBool out of [-1,1]: %v", r)
		}
	}
}

func TestPearsonBoolIdentical(t *testing.T) {
	a := []bool{true, false, true, true, false}
	r, err := PearsonBool(a, a)
	if err != nil || !almost(r, 1, 1e-12) {
		t.Errorf("self correlation = %v/%v, want 1", r, err)
	}
	inv := make([]bool, len(a))
	for i := range a {
		inv[i] = !a[i]
	}
	r, _ = PearsonBool(a, inv)
	if !almost(r, -1, 1e-12) {
		t.Errorf("inverse correlation = %v, want -1", r)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 7
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, 3, 1e-12) || !almost(fit.Intercept, 7, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if !almost(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	src := randx.New(8)
	xs := make([]float64, 400)
	ys := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 0.05*xs[i] + 2 + src.Normal(0, 0.3)
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, 0.05, 0.002) {
		t.Errorf("Slope = %v, want ≈0.05", fit.Slope)
	}
	if fit.R2 < 0.9 {
		t.Errorf("R2 = %v, want > 0.9", fit.R2)
	}
}

func TestFitForceModelRecoversRate(t *testing.T) {
	// Generate F(n) = τ^(2n/c) with the paper's Fig. 6 parameters
	// (τ, c) = (0.556, 822.7) and check that the fitted decay rate matches.
	tau, c := 0.556, 822.7
	lambda := -2 * math.Log(tau) / c
	ns := make([]float64, 60)
	fs := make([]float64, 60)
	for i := range ns {
		ns[i] = float64(i * 20)
		fs[i] = math.Pow(tau, 2*ns[i]/c)
	}
	fit, err := FitForceModel(ns, fs, tau)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Lambda, lambda, 1e-9) {
		t.Errorf("Lambda = %v, want %v", fit.Lambda, lambda)
	}
	if !almost(fit.C, c, 1e-6) {
		t.Errorf("C = %v, want %v", fit.C, c)
	}
	if fit.R2Adj < 0.999 {
		t.Errorf("R2Adj = %v on noiseless data", fit.R2Adj)
	}
}

func TestFitForceModelNoisyR2(t *testing.T) {
	src := randx.New(9)
	tau, c := 0.543, 805.5
	ns := make([]float64, 80)
	fs := make([]float64, 80)
	for i := range ns {
		ns[i] = float64(i * 15)
		fs[i] = math.Pow(tau, 2*ns[i]/c) * math.Exp(src.Normal(0, 0.02))
	}
	fit, err := FitForceModel(ns, fs, tau)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports R²_adj > 0.94 for all curves.
	if fit.R2Adj < 0.94 {
		t.Errorf("R2Adj = %v, want > 0.94", fit.R2Adj)
	}
}

func TestFitForceModelRejectsBadTau(t *testing.T) {
	if _, err := FitForceModel([]float64{1, 2}, []float64{1, 0.9}, 1.5); err == nil {
		t.Error("tauPin > 1 should error")
	}
	if _, err := FitForceModel([]float64{1, 2}, []float64{1, 0.9}, 0); err == nil {
		t.Error("tauPin = 0 should error")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	med, err := Quantile(xs, 0.5)
	if err != nil || med != 3 {
		t.Errorf("median = %v/%v, want 3", med, err)
	}
	lo, _ := Quantile(xs, 0)
	hi, _ := Quantile(xs, 1)
	if lo != 1 || hi != 5 {
		t.Errorf("extremes = %v, %v", lo, hi)
	}
	q, _ := Quantile([]float64{1, 2}, 0.25)
	if !almost(q, 1.25, 1e-12) {
		t.Errorf("Quantile(0.25) = %v, want 1.25", q)
	}
}

func TestQuantileSortedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q25, _ := Quantile(xs, 0.25)
		q75, _ := Quantile(xs, 0.75)
		return q25 <= q75
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBootstrapCI(t *testing.T) {
	src := randx.New(99)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = src.Normal(100, 10)
	}
	lo, hi, err := BootstrapCI(xs, 0.95, 2000, src.Split("boot"))
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < hi) {
		t.Fatalf("interval [%v, %v] inverted", lo, hi)
	}
	// The true mean (≈100) lies inside; the interval is roughly ±2·σ/√n.
	if lo > 100.5 || hi < 99.5 {
		t.Errorf("interval [%v, %v] misses the mean", lo, hi)
	}
	if hi-lo > 4 {
		t.Errorf("interval [%v, %v] implausibly wide", lo, hi)
	}
}

func TestBootstrapCIErrors(t *testing.T) {
	src := randx.New(1)
	if _, _, err := BootstrapCI(nil, 0.95, 100, src); err == nil {
		t.Error("empty sample accepted")
	}
	if _, _, err := BootstrapCI([]float64{1, 2}, 1.5, 100, src); err == nil {
		t.Error("bad confidence accepted")
	}
	if _, _, err := BootstrapCI([]float64{1, 2}, 0.95, 0, src); err == nil {
		t.Error("zero resamples accepted")
	}
}

func TestBootstrapCIConstantSample(t *testing.T) {
	src := randx.New(2)
	lo, hi, err := BootstrapCI([]float64{5, 5, 5, 5}, 0.9, 200, src)
	if err != nil || lo != 5 || hi != 5 {
		t.Errorf("constant-sample CI = [%v, %v]/%v", lo, hi, err)
	}
}
