package grape5

import (
	"math"
	"testing"
)

// TestSimulationClusterMatchesSingle: a Shards=2 simulation must evolve
// bitwise the same trajectory as a single guarded system (Shards=0, a
// one-shard cluster) — the cluster shards along the i-axis only, so no
// reduction order changes and the integrator sees identical forces
// every step.
func TestSimulationClusterMatchesSingle(t *testing.T) {
	mk := func(shards int) *Simulation {
		s := Plummer(256, 1, 1, 1, 9)
		sim, err := NewSimulation(s, Config{
			Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005,
			Engine: EngineGRAPE5, Guard: true, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	single, clustered := mk(0), mk(2)
	defer single.Close()
	defer clustered.Close()
	for _, sim := range []*Simulation{single, clustered} {
		if err := sim.Prime(); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(3); err != nil {
			t.Fatal(err)
		}
	}
	if cl := clustered.Cluster(); cl == nil || cl.Shards() != 2 {
		t.Fatal("Shards=2 simulation did not build a 2-shard cluster")
	}
	if cl := single.Cluster(); cl == nil || cl.Shards() != 1 {
		t.Error("Shards=0 simulation did not build a one-shard cluster")
	}
	for i := 0; i < single.Sys.N(); i++ {
		if single.Sys.Pos[i] != clustered.Sys.Pos[i] || single.Sys.Vel[i] != clustered.Sys.Vel[i] {
			t.Fatalf("particle %d diverged after 3 steps: pos %v vs %v",
				i, single.Sys.Pos[i], clustered.Sys.Pos[i])
		}
	}
}

// TestSimulationClusterTelemetry: a clustered run must report aggregate
// hardware counters, summed recovery activity and a critical-path
// hardware time strictly shorter than the aggregate (two boards really
// ran concurrently), and survive a double Close.
func TestSimulationClusterTelemetry(t *testing.T) {
	s := Plummer(512, 1, 1, 1, 5)
	sim, err := NewSimulation(s, Config{
		Theta: 0.6, Ncrit: 256, G: 1, Eps: 0.05, DT: 0.005,
		Engine: EngineGRAPE5, Guard: true, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	e0 := sim.Energy().Total()
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	e1 := sim.Energy().Total()
	if rel := math.Abs(e1-e0) / math.Abs(e0); rel > 0.02 {
		t.Errorf("clustered GRAPE energy drift = %v", rel)
	}

	cl := sim.Cluster()
	c := sim.HardwareCounters()
	if c.Interactions == 0 || c.Runs == 0 {
		t.Errorf("cluster hardware idle: %+v", c)
	}
	loads := cl.ShardInteractions()
	var sum int64
	for _, l := range loads {
		sum += l
	}
	if sum == 0 || loads[0] == 0 || loads[1] == 0 {
		t.Errorf("shard loads %v: a board sat idle for the whole run", loads)
	}
	crit, agg := cl.CriticalHWSeconds(), c.HWSeconds()
	if !(crit > 0) || !(crit < agg) {
		t.Errorf("critical-path hw time %v not in (0, aggregate %v)", crit, agg)
	}
	rec := sim.Recovery()
	if rec.Checks == 0 {
		t.Errorf("clustered run recorded no acceptance checks: %v", rec)
	}
	if err := sim.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := sim.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestClusterResetCountersZeroesCriticalPath: ResetCounters must zero
// the critical-path hardware time with the aggregate counters. It once
// kept the pre-reset time, so after a reset CriticalHWSeconds exceeded
// the zeroed aggregate Counters().HWSeconds() and skewed the parallel
// efficiency ratio built from the two.
func TestClusterResetCountersZeroesCriticalPath(t *testing.T) {
	for _, shards := range []int{1, 2} {
		s := Plummer(512, 1, 1, 1, 5)
		sim, err := NewSimulation(s, Config{
			Theta: 0.6, Ncrit: 256, G: 1, Eps: 0.05, DT: 0.005,
			Engine: EngineGRAPE5, Guard: true, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		if err := sim.Prime(); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(2); err != nil {
			t.Fatal(err)
		}
		cl := sim.Cluster()
		cl.ResetCounters()
		if crit := cl.CriticalHWSeconds(); crit != 0 {
			t.Errorf("K=%d: critical-path hw time %v right after ResetCounters", shards, crit)
		}
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		crit, agg := cl.CriticalHWSeconds(), cl.Counters().HWSeconds()
		if !(crit > 0) || crit > agg*(1+1e-9) {
			t.Errorf("K=%d: critical-path hw time %v after one step not in (0, aggregate %v]", shards, crit, agg)
		}
	}
}
