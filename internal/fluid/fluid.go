// Package fluid implements the paper's Section 3 machinery: the
// fluid-limit (mean-field) differential equations whose solutions the
// finite-n simulations converge to, for three processes —
//
//   - the classic d-choice balls-and-bins process,
//     dx_i/dt = x_{i−1}^d − x_i^d  (x_0 ≡ 1),
//   - Vöcking's d-left scheme (per-subtable tail fractions), and
//   - the supermarket queueing model,
//     ds_i/dt = λ(s_{i−1}^d − s_i^d) − (s_i − s_{i+1}),
//
// together with the d-choice process capped at a bucket's slots, whose
// overflow goes to a stash (CappedBallsBins and StashCurve, the model
// behind internal/cmap's growth rule), a classical fixed-step RK4
// integrator and the supermarket model's closed-form equilibrium
// s_i = λ^((d^i−1)/(d−1)), from which the paper's Table 8 sojourn times
// follow by Little's law.
package fluid

import (
	"fmt"
	"math"
)

// System is a first-order ODE system dx/dt = F(t, x).
type System interface {
	// Dim returns the dimension of the state vector.
	Dim() int
	// Deriv writes F(t, x) into dx. Implementations must not retain x or
	// dx.
	Deriv(t float64, x, dx []float64)
}

// RK4 integrates sys from state x0 at time t0 to time t1 with the
// classical fourth-order Runge–Kutta method at fixed step dt (the final
// step is shortened to land exactly on t1). It returns the final state in
// a new slice. It panics on non-positive dt, t1 < t0, or a state of the
// wrong dimension.
func RK4(sys System, x0 []float64, t0, t1, dt float64) []float64 {
	n := sys.Dim()
	if len(x0) != n {
		panic(fmt.Sprintf("fluid: state dimension %d, system wants %d", len(x0), n))
	}
	if dt <= 0 {
		panic("fluid: non-positive step size")
	}
	if t1 < t0 {
		panic("fluid: t1 < t0")
	}
	x := append([]float64(nil), x0...)
	st := newStepper(sys)
	t := t0
	for t < t1 {
		h := dt
		if t+h > t1 {
			h = t1 - t
		}
		if h <= 0 {
			break
		}
		st.step(t, h, x)
		t += h
	}
	return x
}

// stepper holds one system's RK4 stage buffers, so a caller that needs
// the state after every step (StashCurve) steps without reallocating.
type stepper struct {
	sys                 System
	k1, k2, k3, k4, tmp []float64
}

func newStepper(sys System) *stepper {
	n := sys.Dim()
	return &stepper{sys: sys, k1: make([]float64, n), k2: make([]float64, n),
		k3: make([]float64, n), k4: make([]float64, n), tmp: make([]float64, n)}
}

// step advances x in place by one classical RK4 step of size h from t.
func (s *stepper) step(t, h float64, x []float64) {
	s.sys.Deriv(t, x, s.k1)
	for i := range s.tmp {
		s.tmp[i] = x[i] + h/2*s.k1[i]
	}
	s.sys.Deriv(t+h/2, s.tmp, s.k2)
	for i := range s.tmp {
		s.tmp[i] = x[i] + h/2*s.k2[i]
	}
	s.sys.Deriv(t+h/2, s.tmp, s.k3)
	for i := range s.tmp {
		s.tmp[i] = x[i] + h*s.k3[i]
	}
	s.sys.Deriv(t+h, s.tmp, s.k4)
	for i := range x {
		x[i] += h / 6 * (s.k1[i] + 2*s.k2[i] + 2*s.k3[i] + s.k4[i])
	}
}

// BallsBins is the classic balanced-allocation fluid limit with d choices.
// State component i (0-based) is x_{i+1}, the fraction of bins with load
// at least i+1; x_0 ≡ 1 is implicit. Levels bounds the tracked load.
type BallsBins struct {
	D      int
	Levels int
}

// Dim returns the number of tracked tail fractions.
func (s BallsBins) Dim() int { return s.Levels }

// Deriv implements dx_i/dt = x_{i−1}^d − x_i^d.
func (s BallsBins) Deriv(_ float64, x, dx []float64) {
	d := float64(s.D)
	prev := 1.0 // x_0
	for i := range x {
		dx[i] = math.Pow(prev, d) - math.Pow(x[i], d)
		prev = x[i]
	}
}

// SolveBallsBins integrates the d-choice system to time T (T·n balls into
// n bins) and returns the tail-fraction vector indexed by load: result[i]
// is the limiting fraction of bins with load >= i, with result[0] == 1.
// levels bounds the largest tracked load.
func SolveBallsBins(d int, T float64, levels int) []float64 {
	if d < 1 {
		panic(fmt.Sprintf("fluid: d = %d", d))
	}
	if levels < 1 {
		panic(fmt.Sprintf("fluid: levels = %d", levels))
	}
	sys := BallsBins{D: d, Levels: levels}
	x := RK4(sys, make([]float64, levels), 0, T, 1e-3)
	out := make([]float64, levels+1)
	out[0] = 1
	copy(out[1:], x)
	return out
}

// LoadFractions converts a tail-fraction vector (result of SolveBallsBins
// or DLeft aggregation) into exact-load fractions: out[i] = tails[i] −
// tails[i+1], with the last tracked level taking the remaining tail.
func LoadFractions(tails []float64) []float64 {
	out := make([]float64, len(tails))
	for i := 0; i < len(tails)-1; i++ {
		out[i] = tails[i] - tails[i+1]
	}
	out[len(tails)-1] = tails[len(tails)-1]
	return out
}

// CappedBallsBins is the d-choice process over buckets of Slots slots: a
// ball whose d candidate buckets are all full goes to an overflow stash,
// as in a multiple-choice hash table. State component i < Slots is
// x_{i+1}, the fraction of buckets holding at least i+1 balls (x_0 ≡ 1);
// component Slots is the stash, in balls per bucket. The levels follow
// BallsBins, dx_i/dt = x_{i−1}^d − x_i^d for i ≤ Slots, and the stash
// fills at rate x_Slots^d.
type CappedBallsBins struct {
	D     int
	Slots int
}

// Dim returns Slots + 1: the tail fractions, then the stash.
func (s CappedBallsBins) Dim() int { return s.Slots + 1 }

// Deriv implements the capped drift.
func (s CappedBallsBins) Deriv(_ float64, x, dx []float64) {
	prev := 1.0 // x_0^d
	for i := 0; i < s.Slots; i++ {
		p := ipow(x[i], s.D)
		dx[i] = prev - p
		prev = p
	}
	dx[s.Slots] = prev
}

// ipow is x^d for a small non-negative integer d.
func ipow(x float64, d int) float64 {
	p := 1.0
	for ; d > 0; d-- {
		p *= x
	}
	return p
}

// StashCurve tabulates the capped system's stash against load: out[k] is
// the stashed balls per bucket once k·slots/steps balls per bucket have
// been thrown — load k/steps of the slot capacity — for k = 0..steps.
// One fixed-step RK4 pass from empty buckets computes the whole table,
// which is nondecreasing.
func StashCurve(d, slots, steps int) []float64 {
	if d < 1 {
		panic(fmt.Sprintf("fluid: d = %d", d))
	}
	if slots < 1 || steps < 1 {
		panic(fmt.Sprintf("fluid: slots = %d, steps = %d", slots, steps))
	}
	sys := CappedBallsBins{D: d, Slots: slots}
	st := newStepper(sys)
	x := make([]float64, sys.Dim())
	h := float64(slots) / float64(steps)
	out := make([]float64, steps+1)
	for k := 1; k <= steps; k++ {
		st.step(float64(k-1)*h, h, x)
		out[k] = x[slots]
	}
	return out
}

// OnePlusBeta is the fluid limit of the (1+β)-choice process: each ball
// uses two uniform choices with probability β, one otherwise, so
// dx_i/dt = (1−β)(x_{i−1} − x_i) + β(x_{i−1}² − x_i²). State component i
// is x_{i+1} as in BallsBins.
type OnePlusBeta struct {
	Beta   float64
	Levels int
}

// Dim returns the number of tracked tail fractions.
func (s OnePlusBeta) Dim() int { return s.Levels }

// Deriv implements the mixed one/two-choice drift.
func (s OnePlusBeta) Deriv(_ float64, x, dx []float64) {
	prev := 1.0
	for i := range x {
		dx[i] = (1-s.Beta)*(prev-x[i]) + s.Beta*(prev*prev-x[i]*x[i])
		prev = x[i]
	}
}

// SolveOnePlusBeta integrates the (1+β) system to time T and returns tail
// fractions indexed by load (result[0] == 1).
func SolveOnePlusBeta(beta, T float64, levels int) []float64 {
	if beta < 0 || beta > 1 {
		panic(fmt.Sprintf("fluid: beta = %v", beta))
	}
	if levels < 1 {
		panic(fmt.Sprintf("fluid: levels = %d", levels))
	}
	sys := OnePlusBeta{Beta: beta, Levels: levels}
	x := RK4(sys, make([]float64, levels), 0, T, 1e-3)
	out := make([]float64, levels+1)
	out[0] = 1
	copy(out[1:], x)
	return out
}

// DLeft is the fluid limit of Vöcking's d-left scheme. State component
// j·Levels + (i−1) is y_{j,i}, the fraction of subtable j's bins with load
// at least i (y_{j,0} ≡ 1). A ball placed at level i in subtable j
// requires its candidate in j to have load i−1, candidates in earlier
// subtables to have load > i−1 (ties break left), and candidates in later
// subtables to have load >= i−1; each subtable holds n/d bins, hence the
// factor d.
type DLeft struct {
	D      int
	Levels int
}

// Dim returns D × Levels.
func (s DLeft) Dim() int { return s.D * s.Levels }

// y returns y_{j,i} from the flat state, honoring y_{j,0} = 1.
func (s DLeft) y(x []float64, j, i int) float64 {
	if i == 0 {
		return 1
	}
	if i > s.Levels {
		return 0
	}
	return x[j*s.Levels+i-1]
}

// Deriv implements dy_{j,i}/dt = d · (y_{j,i−1} − y_{j,i}) ·
// Π_{k<j} y_{k,i} · Π_{k>j} y_{k,i−1}.
func (s DLeft) Deriv(_ float64, x, dx []float64) {
	for j := 0; j < s.D; j++ {
		for i := 1; i <= s.Levels; i++ {
			rate := float64(s.D) * (s.y(x, j, i-1) - s.y(x, j, i))
			for k := 0; k < j; k++ {
				rate *= s.y(x, k, i)
			}
			for k := j + 1; k < s.D; k++ {
				rate *= s.y(x, k, i-1)
			}
			dx[j*s.Levels+i-1] = rate
		}
	}
}

// SolveDLeft integrates the d-left system to time T and returns the
// aggregate tail fractions over all n bins: result[i] is the limiting
// fraction of bins (averaged across subtables) with load >= i.
func SolveDLeft(d int, T float64, levels int) []float64 {
	if d < 2 {
		panic(fmt.Sprintf("fluid: d-left needs d >= 2, got %d", d))
	}
	sys := DLeft{D: d, Levels: levels}
	x := RK4(sys, make([]float64, sys.Dim()), 0, T, 1e-3)
	out := make([]float64, levels+1)
	out[0] = 1
	for i := 1; i <= levels; i++ {
		sum := 0.0
		for j := 0; j < d; j++ {
			sum += sys.y(x, j, i)
		}
		out[i] = sum / float64(d)
	}
	return out
}

// Supermarket is the fluid limit of the queueing model: n FIFO queues,
// Poisson arrivals at rate λn, exponential(1) service, each arrival joins
// the shortest of d sampled queues. State component i (0-based) is
// s_{i+1}, the fraction of queues with at least i+1 jobs; s_0 ≡ 1.
type Supermarket struct {
	D      int
	Lambda float64
	Levels int
}

// Dim returns the number of tracked tail fractions.
func (s Supermarket) Dim() int { return s.Levels }

// Deriv implements ds_i/dt = λ(s_{i−1}^d − s_i^d) − (s_i − s_{i+1}).
func (s Supermarket) Deriv(_ float64, x, dx []float64) {
	d := float64(s.D)
	for i := range x {
		prev := 1.0
		if i > 0 {
			prev = x[i-1]
		}
		next := 0.0
		if i+1 < len(x) {
			next = x[i+1]
		}
		dx[i] = s.Lambda*(math.Pow(prev, d)-math.Pow(x[i], d)) - (x[i] - next)
	}
}

// tailExponent returns (d^i − 1)/(d − 1), the exponent of λ in the fixed
// point s_i; for d = 1 the limit is i, recovering the M/M/1 geometric
// queue-length distribution.
func tailExponent(d, i int) float64 {
	if d == 1 {
		return float64(i)
	}
	return (math.Pow(float64(d), float64(i)) - 1) / float64(d-1)
}

// EquilibriumTails returns the supermarket model's closed-form fixed
// point: s_i = λ^((d^i − 1)/(d − 1)) for i = 0..levels (λ^i for d = 1).
func EquilibriumTails(lambda float64, d int, levels int) []float64 {
	checkSupermarket(lambda, d)
	out := make([]float64, levels+1)
	for i := 0; i <= levels; i++ {
		out[i] = math.Pow(lambda, tailExponent(d, i))
	}
	return out
}

// ExpectedSojourn returns the equilibrium mean time in system for the
// supermarket model with d choices at load λ, by Little's law applied to
// the fixed point: T = Σ_{i≥1} s_i / λ = Σ_{i≥1} λ^((d^i − d)/(d − 1)).
// These are the fluid-limit values behind the paper's Table 8; for d = 1
// the sum is the M/M/1 sojourn 1/(1 − λ).
func ExpectedSojourn(lambda float64, d int) float64 {
	checkSupermarket(lambda, d)
	if d == 1 {
		return 1 / (1 - lambda)
	}
	sum := 0.0
	for i := 1; ; i++ {
		term := math.Pow(lambda, tailExponent(d, i)-1)
		sum += term
		if term < 1e-16 || i > 64 {
			break
		}
	}
	return sum
}

// SojournFromTails applies Little's law to a tail vector (s_0=1, s_1, ...):
// mean jobs per queue is Σ_{i≥1} s_i, arrival rate per queue is λ.
func SojournFromTails(tails []float64, lambda float64) float64 {
	sum := 0.0
	for i := 1; i < len(tails); i++ {
		sum += tails[i]
	}
	return sum / lambda
}

// SolveSupermarket integrates the supermarket system from empty queues to
// time T and returns the tail fractions s_0..s_levels.
func SolveSupermarket(lambda float64, d int, T float64, levels int) []float64 {
	checkSupermarket(lambda, d)
	sys := Supermarket{D: d, Lambda: lambda, Levels: levels}
	x := RK4(sys, make([]float64, levels), 0, T, 1e-3)
	out := make([]float64, levels+1)
	out[0] = 1
	copy(out[1:], x)
	return out
}

func checkSupermarket(lambda float64, d int) {
	if lambda <= 0 || lambda >= 1 {
		panic(fmt.Sprintf("fluid: lambda = %v, need 0 < lambda < 1 for stability", lambda))
	}
	if d < 1 {
		panic(fmt.Sprintf("fluid: supermarket needs d >= 1, got %d", d))
	}
}
