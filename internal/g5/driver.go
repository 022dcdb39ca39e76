package g5

import (
	"fmt"

	"repro/internal/vec"
)

// Driver exposes the emulated hardware through the call sequence of the
// real GRAPE-5 host library (g5_open / g5_set_range / g5_set_xmj /
// g5_calculate_force_on_x / g5_close): the j-particles persist in the
// board particle memory across force calls, so their upload cost is
// paid once — the usage pattern of direct-summation codes, and the
// reason the library distinguishes "set" from "calculate".
//
// A Driver owns its System; do not use the System concurrently.
type Driver struct {
	sys  *System
	jx   []vec.V3
	jm   []float64
	open bool
}

// Open powers up a hardware instance (g5_open).
func Open(cfg Config) (*Driver, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &Driver{sys: sys, open: true}, nil
}

// Close releases the hardware (g5_close). Closing an already-closed
// driver is a no-op; any other device call after Close fails. The
// error return mirrors the real host library, where releasing the PCI
// interface can fail — the emulation has nothing to release, so the
// error is always nil today, but callers must already handle it.
func (d *Driver) Close() error {
	d.open = false
	d.jx, d.jm = nil, nil
	return nil
}

// System exposes the underlying emulated hardware (counters, config).
func (d *Driver) System() *System { return d.sys }

// NumberOfPipelines mirrors g5_get_number_of_pipelines: the i-batch
// granularity the caller should use for peak efficiency (virtual
// pipelines of one board).
func (d *Driver) NumberOfPipelines() int {
	return d.sys.Config().VirtualPipesPerBoard()
}

// JMemorySize returns the total particle-memory capacity.
func (d *Driver) JMemorySize() int {
	return d.sys.Config().JMemPerBoard * d.sys.Config().Boards
}

// SetRange mirrors g5_set_range: fixes the fixed-point coordinate
// window.
func (d *Driver) SetRange(xmin, xmax float64) error {
	if !d.open {
		return fmt.Errorf("g5: driver closed")
	}
	return d.sys.SetScale(xmin, xmax)
}

// SetEpsToAll mirrors g5_set_eps_to_all. NaN, negative and infinite
// softening are rejected.
func (d *Driver) SetEpsToAll(eps float64) error {
	if !d.open {
		return fmt.Errorf("g5: driver closed")
	}
	return d.sys.SetEps(eps)
}

// SetXMJ mirrors g5_set_xmj: writes n j-particles starting at memory
// address adr. Fails when the write exceeds the particle memory — the
// capacity error real hosts must chunk around.
func (d *Driver) SetXMJ(adr int, x []vec.V3, m []float64) error {
	if !d.open {
		return fmt.Errorf("g5: driver closed")
	}
	if len(x) != len(m) {
		return fmt.Errorf("g5: SetXMJ length mismatch %d vs %d", len(x), len(m))
	}
	if adr < 0 || adr+len(x) > d.JMemorySize() {
		return fmt.Errorf("g5: SetXMJ [%d, %d) exceeds particle memory %d",
			adr, adr+len(x), d.JMemorySize())
	}
	if need := adr + len(x); need > len(d.jx) {
		d.jx = append(d.jx, make([]vec.V3, need-len(d.jx))...)
		d.jm = append(d.jm, make([]float64, need-len(d.jm))...)
	}
	copy(d.jx[adr:], x)
	copy(d.jm[adr:], m)
	d.sys.chargeJBytes(len(x))
	return nil
}

// NJ returns the number of loaded j-particles.
func (d *Driver) NJ() int { return len(d.jx) }

// CalculateForceOnX mirrors g5_calculate_force_on_x: computes the
// forces from the loaded j-set on the given field points, ADDING into
// acc and pot. The j upload is not re-charged (the data already sits in
// the particle memory).
func (d *Driver) CalculateForceOnX(x []vec.V3, acc []vec.V3, pot []float64) error {
	if !d.open {
		return fmt.Errorf("g5: driver closed")
	}
	if len(d.jx) == 0 {
		return fmt.Errorf("g5: no j-particles loaded")
	}
	return d.sys.compute(x, d.jx, d.jm, acc, pot, false, 0)
}
