// Package integrate advances particle systems through time. The paper
// integrates Newton's equations with a constant-timestep leapfrog on
// the host while GRAPE-5 supplies the accelerations; the headline run
// is an isolated expanding sphere evolved in physical coordinates from
// z = 24 to z = 0 in 999 equal steps.
package integrate

import (
	"fmt"

	"repro/internal/nbody"
)

// ForceFunc fills s.Acc (and s.Pot) from the current positions. It may
// reorder the system (the treecode sorts particles into Morton order);
// identity is tracked through s.ID.
type ForceFunc func(s *nbody.System) error

// Leapfrog is the kick-drift-kick (velocity Verlet) integrator with a
// fixed timestep: second order, symplectic, time-reversible — the
// standard choice for collisionless N-body work then and now.
// Simulations run a fixed step as BlockLeapfrog's one-rung schedule,
// which is bitwise this integrator; Leapfrog stays as the reference the
// block scheduler is tested against.
type Leapfrog struct {
	// DT is the timestep.
	DT float64
	// Force computes accelerations.
	Force ForceFunc

	primed bool
}

// NewLeapfrog constructs an integrator.
func NewLeapfrog(dt float64, force ForceFunc) (*Leapfrog, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("integrate: timestep must be positive, got %v", dt)
	}
	if force == nil {
		return nil, fmt.Errorf("integrate: nil force function")
	}
	return &Leapfrog{DT: dt, Force: force}, nil
}

// Prime computes the initial accelerations. It must run once before the
// first Step; Step calls it automatically if the caller has not.
func (l *Leapfrog) Prime(s *nbody.System) error {
	if err := l.Force(s); err != nil {
		return err
	}
	l.primed = true
	return nil
}

// Primed reports whether initial accelerations are available (Prime or
// a first Step has run, or SetPrimed marked restored checkpoint state).
func (l *Leapfrog) Primed() bool { return l.primed }

// SetPrimed overrides the primed flag. A checkpoint resume restores the
// post-force accelerations alongside positions and velocities and marks
// the integrator primed, so the resumed run's next Step consumes them
// exactly like the uninterrupted run would — no re-priming force call,
// no divergence.
func (l *Leapfrog) SetPrimed(primed bool) { l.primed = primed }

// Step advances the system by one timestep: half-kick, drift,
// recompute forces, half-kick.
func (l *Leapfrog) Step(s *nbody.System) error {
	if !l.primed {
		if err := l.Prime(s); err != nil {
			return err
		}
	}
	half := l.DT / 2
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].MulAdd(half, s.Acc[i])
	}
	for i := range s.Pos {
		s.Pos[i] = s.Pos[i].MulAdd(l.DT, s.Vel[i])
	}
	if err := l.Force(s); err != nil {
		return err
	}
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].MulAdd(half, s.Acc[i])
	}
	return nil
}

// Run advances n steps.
func (l *Leapfrog) Run(s *nbody.System, n int) error {
	for k := 0; k < n; k++ {
		if err := l.Step(s); err != nil {
			return fmt.Errorf("integrate: step %d: %w", k, err)
		}
	}
	return nil
}

// Reverse flips all velocities; running the same number of steps again
// retraces the trajectory (up to roundoff), the classic reversibility
// check for symplectic integrators.
func Reverse(s *nbody.System) {
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Neg()
	}
}

// Schedule describes a fixed-step time integration window.
type Schedule struct {
	// T0 and T1 are the start and end times.
	T0, T1 float64
	// Steps is the number of equal steps.
	Steps int
}

// DT returns the step size.
func (sc Schedule) DT() float64 { return (sc.T1 - sc.T0) / float64(sc.Steps) }

// Validate reports schedule errors.
func (sc Schedule) Validate() error {
	if sc.Steps < 1 {
		return fmt.Errorf("integrate: Steps must be >= 1")
	}
	if !(sc.T1 > sc.T0) {
		return fmt.Errorf("integrate: T1 must exceed T0")
	}
	return nil
}
