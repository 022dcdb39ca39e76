// Command perfreport regenerates the paper's evaluation numbers:
//
//	E1  theoretical peak (109.44 Gflops, §2)
//	E7  system cost ($40,900, §4)
//	E8  particle mass (1.7e10 Msun, §5)
//	E4  headline run statistics: interactions, average list length,
//	    wall clock, raw Gflops (§5)
//	E5  original-algorithm correction and effective Gflops, and the
//	    $X/Mflops headline (§5)
//
// The traversal runs for real at the requested scale (default the
// paper's full N = 2,159,038 via -grid 160 equivalent sphere, see
// -full; smaller by default) over both clustered and unclustered
// snapshots; host time uses the calibrated DS10 model and GRAPE time
// the g5 timing model; the run totals extrapolate per-step statistics
// to the paper's 999 steps.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	grape5 "repro"
	"repro/internal/core"
	"repro/internal/cosmo"
	"repro/internal/g5"
	"repro/internal/nbody"
	"repro/internal/perf"
	"repro/internal/snapio"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfreport: ")
	var (
		grid   = flag.Int("grid", 32, "IC grid per dimension for the measured traversal")
		full   = flag.Bool("full", false, "run the traversal at the paper's full N=2,159,038 (grid 160; needs ~2 GB and minutes)")
		in     = flag.String("in", "", "evolved snapshot to measure on (more faithful list lengths than fresh ICs)")
		theta  = flag.Float64("theta", 0.75, "opening parameter")
		ncrit  = flag.Int("ncrit", 2000, "group bound n_g (paper optimum)")
		seed   = flag.Uint64("seed", 1, "IC seed")
		epochs = flag.String("epochs", "", "comma-separated redshifts: measure a Zel'dovich realisation at each and average the per-step model over them (approximates the paper's run average), e.g. 24,9,4,1.5,0")
		faults = flag.Bool("faults", false, "append E9: degraded-mode offload with an injected board failure")
	)
	flag.Parse()

	cfg := g5.DefaultConfig()
	cost := perf.PaperCostModel()

	// ----- E1: peak speed accounting ---------------------------------
	fmt.Println("== E1: theoretical peak (paper §2) ==")
	fmt.Printf("pipelines: %d boards x %d chips x %d pipes = %d physical (x%d VMP = %d virtual/board)\n",
		cfg.Boards, cfg.ChipsPerBoard, cfg.PipesPerChip, cfg.PhysicalPipes(), cfg.VMP,
		cfg.VirtualPipesPerBoard())
	fmt.Printf("peak: %d pipes x %.0f MHz x %d ops = %.2f Gflops   (paper: 109.44)\n\n",
		cfg.PhysicalPipes(), cfg.ChipClockHz/1e6, cfg.OpsPerInteraction, cfg.PeakFlops()/1e9)

	// ----- E7: cost ---------------------------------------------------
	fmt.Println("== E7: system cost (paper §4) ==")
	fmt.Printf("%d boards x %.2f M JYE + host %.1f M JYE = %.1f M JYE\n",
		cost.Boards, cost.BoardJYE/1e6, cost.HostJYE/1e6, cost.TotalJYE()/1e6)
	fmt.Printf("at %.0f JYE/$: $%.0f   (paper: ~$40,900)\n\n", cost.YenPerDollar, cost.TotalDollars())

	// ----- E8: particle mass ------------------------------------------
	fmt.Println("== E8: particle mass (paper §5) ==")
	m := units.ParticleMass(units.OmegaM, units.LittleH, units.PaperRadiusMpc, units.PaperN)
	fmt.Printf("Omega=1, h=0.5, 50 Mpc sphere, N=%d: m = %.3g Msun   (paper: 1.7e10)\n\n",
		units.PaperN, m*1e10)

	// ----- measured traversal -----------------------------------------
	gridN, latticeN := *grid, 0
	if *full {
		// π/6 · 160³ ≈ 2.14e6 particles ≈ the paper's N, sampled from a
		// 128³ Fourier grid.
		gridN, latticeN = 128, 160
	}
	host := perf.DS10()

	measure := func(sys *nbody.System, label string) (perf.StepReport, int64) {
		t0 := time.Now()
		hw, err := g5.NewSystem(cfg)
		if err != nil {
			log.Fatal(err)
		}
		b := sys.Bounds().Cube()
		if err := hw.SetScale(b.Min.X-1, b.Max.X+1); err != nil {
			log.Fatal(err)
		}
		eng := perf.NewScheduleEngine(hw)
		tc := core.New(core.Options{Theta: *theta, Ncrit: *ncrit}, eng)
		st, err := tc.ComputeForces(sys.Clone())
		if err != nil {
			log.Fatal(err)
		}
		orig, err := core.New(core.Options{Theta: *theta}, nil).CountOriginal(sys.Clone())
		if err != nil {
			log.Fatal(err)
		}
		rep := perf.ModelStep(host, st, hw.Counters())
		fmt.Printf("%-22s groups=%-6d avgList=%-6.0f mod/orig=%.2fx  host %.2fs + pipe %.2fs + bus %.2fs = %.2fs  (measured in %v)\n",
			label, st.Groups, st.AvgList(), float64(st.Interactions)/float64(orig),
			rep.HostSeconds, rep.PipeSeconds, rep.BusSeconds, rep.TotalSeconds(),
			time.Since(t0).Round(time.Millisecond))
		return rep, orig
	}

	var rep perf.StepReport
	var orig int64
	var nMeasured int
	switch {
	case *in != "":
		_, sys, err := snapio.ReadFile(*in)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== E4/E5: run statistics (snapshot %s, N=%d) ==\n", *in, sys.N())
		rep, orig = measure(sys, "snapshot")
		nMeasured = sys.N()
	case *epochs != "":
		zs := parseEpochs(*epochs)
		fmt.Printf("== E4/E5: run statistics averaged over Zel'dovich epochs z=%v (grid %d, lattice %d) ==\n",
			zs, gridN, latticeN)
		var sum perf.StepReport
		var sumOrig int64
		for _, z := range zs {
			sys := realizeAt(gridN, latticeN, z, *seed)
			nMeasured = sys.N()
			r, o := measure(sys, fmt.Sprintf("z=%-5.2g", z))
			sum.HostSeconds += r.HostSeconds
			sum.PipeSeconds += r.PipeSeconds
			sum.BusSeconds += r.BusSeconds
			sum.Interactions += r.Interactions
			sumOrig += o
		}
		k := float64(len(zs))
		rep = perf.StepReport{
			HostSeconds:  sum.HostSeconds / k,
			PipeSeconds:  sum.PipeSeconds / k,
			BusSeconds:   sum.BusSeconds / k,
			Interactions: int64(float64(sum.Interactions) / k),
		}
		orig = int64(float64(sumOrig) / k)
	default:
		sys := realizeAt(gridN, latticeN, units.PaperZInit, *seed)
		fmt.Printf("== E4/E5: run statistics (fresh z=24 ICs, grid %d, lattice %d, N=%d) ==\n",
			gridN, latticeN, sys.N())
		rep, orig = measure(sys, "z=24")
		nMeasured = sys.N()
	}

	fmt.Printf("\nper-step model: interactions=%.4g avg list=%.0f (paper run average: %.0f)\n",
		float64(rep.Interactions), float64(rep.Interactions)/float64(nMeasured),
		float64(units.PaperAvgListLength))
	fmt.Printf("modified/original operation ratio: %.2fx (paper: %.2fx)\n",
		float64(rep.Interactions)/float64(orig),
		units.PaperInteractions/units.PaperOriginalInteractions)

	run := perf.RunModel{
		Steps:             units.PaperSteps,
		PerStep:           rep,
		OriginalPerStep:   orig,
		OpsPerInteraction: cfg.OpsPerInteraction,
		Cost:              cost,
	}
	gb := run.GordonBell()
	fmt.Printf("\n== modelled %d-step run at this N ==\n", units.PaperSteps)
	fmt.Printf("wall clock: %.0f s (%.2f h)   paper: %.0f s (8.37 h at N=%d)\n",
		run.TotalSeconds(), run.TotalSeconds()/3600,
		float64(units.PaperWallClockSeconds), units.PaperN)
	fmt.Printf("total interactions: %.3g   paper: %.3g\n", gb.Interactions, float64(units.PaperInteractions))
	fmt.Printf("raw sustained:       %6.2f Gflops   paper: %.1f\n", gb.RawFlops()/1e9, float64(units.PaperRawGflops))
	fmt.Printf("effective sustained: %6.2f Gflops   paper: %.2f\n", gb.EffectiveFlops()/1e9, float64(units.PaperEffectiveGflops))
	fmt.Printf("price/performance:   $%5.1f/Mflops   paper: $%.1f/Mflops\n",
		gb.PricePerMflops(), float64(units.PaperPricePerMflops))

	// Paper cross-check from its own totals.
	fmt.Printf("\n== paper's own totals re-derived (arithmetic check) ==\n")
	fmt.Printf("%s\n", perf.PaperGordonBell().String())

	if *faults {
		reportDegraded(host, *theta, *seed)
	}
}

// reportDegraded is E9: drive the fault-tolerant offload path while one
// board dies mid-run, and show the timing-model degradation (pipe time
// roughly doubles when the 2-board system drops to 1) next to the
// guard's recovery counters.
func reportDegraded(host perf.HostModel, theta float64, seed uint64) {
	fmt.Printf("\n== E9: degraded-mode offload (board 2 dies mid-run) ==\n")
	sys := grape5.Plummer(4000, 1, 1, 1, seed)
	fCfg := g5.DefaultConfig()
	fCfg.Fault = &g5.FaultModel{Seed: 7, FailBoard: 2, FailAfterRuns: 200, FailSlot: 11}
	cl, err := g5.NewCluster(g5.ClusterConfig{Board: fCfg, G: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := cl.Close(); err != nil {
			log.Fatal(err)
		}
	}()
	if err := cl.SetEps(0.02); err != nil {
		log.Fatal(err)
	}
	tc := core.New(core.Options{Theta: theta, Ncrit: 500, G: 1, Eps: 0.02}, cl)
	for step := 1; step <= 6; step++ {
		b := sys.Bounds().Cube()
		ext := b.MaxEdge()
		if err := cl.SetScale(b.Min.X-0.05*ext, b.Max.X+0.05*ext); err != nil {
			log.Fatal(err)
		}
		cl.ResetCounters()
		st, err := tc.ComputeForces(sys)
		if err != nil {
			log.Fatal(err)
		}
		rep := perf.ModelStep(host, st, cl.Counters())
		fmt.Printf("step %d: boards=%d pipe=%.4gs bus=%.4gs  %s\n",
			step, cl.ActiveBoards(), rep.PipeSeconds, rep.BusSeconds, cl.Recovery())
	}
	fs := cl.FaultStats()
	fmt.Printf("injected faults: bitflips=%d stuck-pipe-calls=%d bus=%d transient=%d\n",
		fs.JMemBitFlips, fs.StuckPipeCalls, fs.BusErrors, fs.Transients)
}

// realizeAt generates a Zel'dovich realisation of the paper's sphere at
// redshift z (z=0 approximates the fully clustered state; intermediate
// z interpolate, standing in for run-average statistics the paper
// measured over the live evolution).
func realizeAt(gridN, latticeN int, z float64, seed uint64) *nbody.System {
	c := cosmo.SCDM()
	ps, err := cosmo.NewPowerSpectrum(c, 1, 0.67)
	if err != nil {
		log.Fatal(err)
	}
	r, err := cosmo.GenerateSphere(cosmo.ICParams{
		Power:     ps,
		GridN:     gridN,
		LatticeN:  latticeN,
		BoxMpc:    2 * units.PaperRadiusMpc,
		RadiusMpc: units.PaperRadiusMpc,
		ZInit:     z,
		Seed:      seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	return r.System
}

// parseEpochs parses a comma-separated redshift list.
func parseEpochs(s string) []float64 {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v < 0 {
			log.Fatalf("bad epoch %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		log.Fatal("empty epoch list")
	}
	return out
}
