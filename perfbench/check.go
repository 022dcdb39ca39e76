package main

import (
	"fmt"
	"math"
	"runtime/metrics"

	grape5 "repro"
	"repro/internal/analysis"
)

// forceSample is the number of field particles whose forces are checked
// against the float64 direct sum.
const forceSample = 1024

// forceErrRMS returns the RMS relative acceleration error of s (forces
// already computed) against a float64 direct sum over all N, for every
// particle whose ID is a multiple of N/forceSample. G and eps are the
// simulation's gravitational constant and Plummer softening.
func forceErrRMS(s *grape5.System, g, eps float64) float64 {
	n := s.N()
	stride := int64(max(1, n/forceSample))
	eps2 := eps * eps
	var sum float64
	var k int
	for i := 0; i < n; i++ {
		if s.ID[i]%stride != 0 {
			continue
		}
		pi := s.Pos[i]
		var ax, ay, az float64
		for j := 0; j < n; j++ {
			dx := s.Pos[j].X - pi.X
			dy := s.Pos[j].Y - pi.Y
			dz := s.Pos[j].Z - pi.Z
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue
			}
			r2 += eps2
			f := s.Mass[j] / (r2 * math.Sqrt(r2))
			ax += f * dx
			ay += f * dy
			az += f * dz
		}
		ax, ay, az = g*ax, g*ay, g*az
		ex, ey, ez := s.Acc[i].X-ax, s.Acc[i].Y-ay, s.Acc[i].Z-az
		ref := ax*ax + ay*ay + az*az
		if ref == 0 {
			continue
		}
		sum += (ex*ex + ey*ey + ez*ez) / ref
		k++
	}
	if k == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(k))
}

// energyErr returns the energy drift from e0 to e as a share of the
// larger of |E0| and |U0|, the initial total and potential energies. A
// cosmological sphere is marginally bound, E0 ≈ 0, so a drift relative
// to E0 alone would be meaningless there.
func energyErr(e, e0 analysis.EnergyReport) float64 {
	return math.Abs(e.Total()-e0.Total()) / max(math.Abs(e0.Total()), math.Abs(e0.Potential))
}

// sameState compares two systems particle by particle, matched by ID,
// and returns an error naming the first field that differs in any bit.
func sameState(a, b *grape5.System) error {
	if a.N() != b.N() {
		return fmt.Errorf("N %d vs %d", a.N(), b.N())
	}
	at := make(map[int64]int, a.N())
	for i, id := range a.ID {
		at[id] = i
	}
	bits := math.Float64bits
	for j, id := range b.ID {
		i, ok := at[id]
		if !ok {
			return fmt.Errorf("particle %d missing", id)
		}
		pa, pb := a.Pos[i], b.Pos[j]
		va, vb := a.Vel[i], b.Vel[j]
		ca, cb := a.Acc[i], b.Acc[j]
		fields := [][2]float64{
			{pa.X, pb.X}, {pa.Y, pb.Y}, {pa.Z, pb.Z},
			{va.X, vb.X}, {va.Y, vb.Y}, {va.Z, vb.Z},
			{ca.X, cb.X}, {ca.Y, cb.Y}, {ca.Z, cb.Z},
			{a.Pot[i], b.Pot[j]}, {a.Mass[i], b.Mass[j]},
		}
		for k, f := range fields {
			if bits(f[0]) != bits(f[1]) {
				return fmt.Errorf("particle %d differs in field %d: %v vs %v", id, k, f[0], f[1])
			}
		}
	}
	return nil
}

// liveHeap returns the heap bytes the last garbage collection found
// live.
func liveHeap() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
