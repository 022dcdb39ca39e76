package grape5_test

import (
	"fmt"
	"math"

	grape5 "repro"
)

// The smallest complete use of the library: build a model, attach the
// emulated GRAPE-5, integrate, check conservation.
func ExampleNewSimulation() {
	sys := grape5.Plummer(2000, 1.0, 1.0, 1.0, 42)
	sim, err := grape5.NewSimulation(sys, grape5.Config{
		Theta:  0.75,
		Ncrit:  256,
		G:      1,
		Eps:    0.02,
		DT:     0.005,
		Engine: grape5.EngineGRAPE5,
	})
	if err != nil {
		panic(err)
	}
	defer sim.Close()
	if err := sim.Prime(); err != nil {
		panic(err)
	}
	e0 := sim.Energy().Total()
	if err := sim.Run(20); err != nil {
		panic(err)
	}
	drift := math.Abs(sim.Energy().Total()-e0) / math.Abs(e0)
	fmt.Println("energy drift below 1%:", drift < 0.01)
	fmt.Println("hardware was used:", sim.HardwareCounters().Interactions > 0)
	// Output:
	// energy drift below 1%: true
	// hardware was used: true
}

// Generating the paper's class of initial conditions: a standard-CDM
// sphere at z=24 with its integration schedule to z=0.
func ExampleNewCosmoSphere() {
	cs, err := grape5.NewCosmoSphere(grape5.CosmoSphereParams{
		GridN: 8, Seed: 1,
	}, 999)
	if err != nil {
		panic(err)
	}
	fmt.Println("particles generated:", cs.Sys.N() > 200)
	fmt.Println("starts at a=0.04 (z=24):", math.Abs(cs.AInit-0.04) < 1e-12)
	fmt.Println("999 steps scheduled:", cs.Schedule.Steps == 999)
	// Output:
	// particles generated: true
	// starts at a=0.04 (z=24): true
	// 999 steps scheduled: true
}

// Finding collapsed structures in a snapshot.
func ExampleFindHalos() {
	a := grape5.Plummer(400, 1, 0.1, 1, 7)
	b := grape5.Plummer(400, 1, 0.1, 1, 8)
	merged := grape5.Merge(a, b, grape5.Vec3{X: 30}, grape5.Vec3{})
	halos, err := grape5.FindHalos(merged, 0.2, 50)
	if err != nil {
		panic(err)
	}
	fmt.Println("halos found:", len(halos))
	// Output:
	// halos found: 2
}
