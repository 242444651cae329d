package fluid

import (
	"math"
	"testing"
)

// expSystem is dx/dt = x, solution x(t) = x(0)·e^t.
type expSystem struct{}

func (expSystem) Dim() int { return 1 }
func (expSystem) Deriv(_ float64, x, dx []float64) {
	dx[0] = x[0]
}

func TestRK4Exponential(t *testing.T) {
	got := RK4(expSystem{}, []float64{1}, 0, 1, 1e-3)[0]
	if math.Abs(got-math.E) > 1e-9 {
		t.Fatalf("e^1 = %v, want %v", got, math.E)
	}
}

// oscillator is x” = −x written as a 2-dim system; energy x²+v² is
// conserved, a standard integrator sanity check.
type oscillator struct{}

func (oscillator) Dim() int { return 2 }
func (oscillator) Deriv(_ float64, x, dx []float64) {
	dx[0] = x[1]
	dx[1] = -x[0]
}

func TestRK4EnergyConservation(t *testing.T) {
	got := RK4(oscillator{}, []float64{1, 0}, 0, 2*math.Pi, 1e-3)
	if math.Abs(got[0]-1) > 1e-8 || math.Abs(got[1]) > 1e-8 {
		t.Fatalf("after one period got %v, want [1 0]", got)
	}
}

func TestRK4FinalPartialStep(t *testing.T) {
	// t1 not a multiple of dt must still land exactly on t1.
	got := RK4(expSystem{}, []float64{1}, 0, 0.55, 0.1)[0]
	want := math.Exp(0.55)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("partial step: %v, want %v", got, want)
	}
}

func TestRK4Validation(t *testing.T) {
	for i, f := range []func(){
		func() { RK4(expSystem{}, []float64{1, 2}, 0, 1, 0.1) },
		func() { RK4(expSystem{}, []float64{1}, 0, 1, 0) },
		func() { RK4(expSystem{}, []float64{1}, 1, 0, 0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestBallsBinsTable2Values(t *testing.T) {
	// Paper Table 2 (d = 3, T = 1): tails 0.8231 / 0.1765 / 0.00051.
	// (Our RK4 converges to 0.8230405/0.1764518/0.0005077; the paper
	// prints four decimals, so tolerate rounding-level differences.)
	tails := SolveBallsBins(3, 1, 8)
	want := []float64{1, 0.8231, 0.1765, 0.00051}
	tol := []float64{0, 1.5e-4, 1.5e-4, 5e-6}
	for i := 1; i <= 3; i++ {
		if math.Abs(tails[i]-want[i]) > tol[i] {
			t.Errorf("d=3 tail %d = %.6f, want %.4f", i, tails[i], want[i])
		}
	}
}

func TestBallsBinsTable1DFour(t *testing.T) {
	// Paper Table 1(b) (d = 4): load fractions 0.14081 / 0.71840 /
	// 0.14077 / 2.25e-5.
	fr := LoadFractions(SolveBallsBins(4, 1, 8))
	want := []float64{0.14081, 0.71840, 0.14077, 2.3e-5}
	tol := []float64{3e-4, 3e-4, 3e-4, 5e-6}
	for i := range want {
		if math.Abs(fr[i]-want[i]) > tol[i] {
			t.Errorf("d=4 load %d fraction = %.6f, want %.5f", i, fr[i], want[i])
		}
	}
}

func TestBallsBinsInvariants(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		for _, T := range []float64{0.5, 1, 2} {
			tails := SolveBallsBins(d, T, 20)
			// Monotone non-increasing, in [0,1].
			for i := 1; i < len(tails); i++ {
				if tails[i] < -1e-12 || tails[i] > tails[i-1]+1e-12 {
					t.Fatalf("d=%d T=%v: tails not monotone in [0,1]: %v", d, T, tails)
				}
			}
			// Mass conservation: Σ_{i≥1} x_i = T (balls per bin).
			mass := 0.0
			for i := 1; i < len(tails); i++ {
				mass += tails[i]
			}
			if math.Abs(mass-T) > 1e-6 {
				t.Errorf("d=%d T=%v: mass %v, want %v", d, T, mass, T)
			}
		}
	}
}

func TestBallsBinsHigherDTighter(t *testing.T) {
	// More choices concentrate the distribution: tail at level 2 shrinks
	// with d.
	t2 := func(d int) float64 { return SolveBallsBins(d, 1, 8)[2] }
	if !(t2(2) > t2(3) && t2(3) > t2(4)) {
		t.Errorf("tail-2 not decreasing in d: %v %v %v", t2(2), t2(3), t2(4))
	}
}

func TestDLeftFluidMatchesTable7(t *testing.T) {
	// Paper Table 7 (d-left, 4 subtables): fractions 0.12420 / 0.75160 /
	// 0.12420 at loads 0/1/2.
	fr := LoadFractions(SolveDLeft(4, 1, 6))
	want := []float64{0.12420, 0.75160, 0.12420}
	for i := range want {
		if math.Abs(fr[i]-want[i]) > 5e-4 {
			t.Errorf("d-left load %d fraction = %.5f, want %.5f", i, fr[i], want[i])
		}
	}
}

func TestDLeftMassConservation(t *testing.T) {
	tails := SolveDLeft(4, 1, 10)
	mass := 0.0
	for i := 1; i < len(tails); i++ {
		mass += tails[i]
	}
	if math.Abs(mass-1) > 1e-6 {
		t.Errorf("d-left mass %v, want 1", mass)
	}
}

func TestDLeftBeatsClassic(t *testing.T) {
	// Vöcking's scheme has a lighter tail than classic d-choice at the
	// same d: compare tail at level 2.
	classic := SolveBallsBins(4, 1, 8)[2]
	dleft := SolveDLeft(4, 1, 8)[2]
	if dleft >= classic {
		t.Errorf("d-left tail-2 %v not below classic %v", dleft, classic)
	}
}

func TestExpectedSojournTable8(t *testing.T) {
	// Fluid-limit values corresponding to the paper's Table 8. The paper's
	// simulated values (n=2^14) are within ~1e-3 of these.
	cases := []struct {
		lambda float64
		d      int
		want   float64
		tol    float64
	}{
		{0.9, 3, 2.02805, 3e-4},
		{0.9, 4, 1.77788, 2e-4},
		{0.99, 3, 3.85967, 3e-3},
		{0.99, 4, 3.24347, 3e-3},
	}
	for _, c := range cases {
		got := ExpectedSojourn(c.lambda, c.d)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("ExpectedSojourn(%v, %d) = %.5f, want ≈ %.5f", c.lambda, c.d, got, c.want)
		}
	}
}

func TestExpectedSojournMM1(t *testing.T) {
	for _, lambda := range []float64{0.5, 0.9, 0.99} {
		if got, want := ExpectedSojourn(lambda, 1), 1/(1-lambda); math.Abs(got-want) > 1e-12 {
			t.Errorf("M/M/1 sojourn at λ=%v: %v, want %v", lambda, got, want)
		}
	}
}

func TestSupermarketODEConvergesToFixedPoint(t *testing.T) {
	const lambda, d = 0.9, 3
	levels := 12
	got := SolveSupermarket(lambda, d, 200, levels)
	want := EquilibriumTails(lambda, d, levels)
	for i := 0; i <= levels; i++ {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Errorf("s_%d = %v, fixed point %v", i, got[i], want[i])
		}
	}
	// Sojourn via Little's law from the ODE equilibrium matches the sum.
	if s := SojournFromTails(got, lambda); math.Abs(s-ExpectedSojourn(lambda, d)) > 1e-5 {
		t.Errorf("ODE sojourn %v vs closed form %v", s, ExpectedSojourn(lambda, d))
	}
}

func TestEquilibriumTailsDecreasing(t *testing.T) {
	tails := EquilibriumTails(0.99, 4, 8)
	if tails[0] != 1 {
		t.Errorf("s_0 = %v", tails[0])
	}
	for i := 1; i < len(tails); i++ {
		if tails[i] >= tails[i-1] {
			t.Errorf("tails not strictly decreasing at %d: %v", i, tails)
		}
	}
}

func TestSupermarketValidation(t *testing.T) {
	for i, f := range []func(){
		func() { ExpectedSojourn(0, 3) },
		func() { ExpectedSojourn(1, 3) },
		func() { ExpectedSojourn(0.9, 0) },
		func() { SolveBallsBins(0, 1, 4) },
		func() { SolveBallsBins(3, 1, 0) },
		func() { SolveDLeft(1, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestLoadFractionsSumToOne(t *testing.T) {
	fr := LoadFractions(SolveBallsBins(3, 1, 10))
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("load fractions sum to %v", sum)
	}
}

// TestStashCurveMatchesUncappedLevels: capping leaves levels 1..b
// exactly as in the uncapped system, so the stash is whatever those
// levels do not hold, S(T) = T − Σ_{i≤b} x_i(T); the curve is
// nondecreasing from S(0) = 0.
func TestStashCurveMatchesUncappedLevels(t *testing.T) {
	for _, c := range []struct{ d, slots int }{{3, 4}, {2, 8}, {1, 2}} {
		const steps = 1024
		curve := StashCurve(c.d, c.slots, steps)
		if len(curve) != steps+1 || curve[0] != 0 {
			t.Fatalf("d=%d slots=%d: %d entries from %v", c.d, c.slots, len(curve), curve[0])
		}
		for k := 1; k <= steps; k++ {
			if curve[k] < curve[k-1] {
				t.Fatalf("d=%d slots=%d: curve falls at step %d", c.d, c.slots, k)
			}
		}
		for _, k := range []int{steps / 2, steps * 9 / 10, steps} {
			T := float64(k*c.slots) / steps
			tails := SolveBallsBins(c.d, T, c.slots)
			want := T
			for _, x := range tails[1:] {
				want -= x
			}
			if math.Abs(curve[k]-want) > 1e-6 {
				t.Errorf("d=%d slots=%d load %.2f: stash %.8f per bucket, want %.8f",
					c.d, c.slots, float64(k)/steps, curve[k], want)
			}
		}
	}
}

// BenchmarkStashCurve is the one-time cost of the table a map's growth
// rule reads: served's shape, d = 3 and 4 slots, at 1024 load steps.
func BenchmarkStashCurve(b *testing.B) {
	for b.Loop() {
		StashCurve(3, 4, 1024)
	}
}
