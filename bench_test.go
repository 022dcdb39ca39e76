package grape5

// The benchmark harness regenerates every number in the paper's
// evaluation (experiments E1-E8 of DESIGN.md) and benchmarks each
// subsystem. Derived quantities (Gflops, errors, optimal n_g, ...) are
// attached to the benchmark output with b.ReportMetric, so
// `go test -bench=. -benchmem` prints the full reproduction table.

import (
	"math"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/g5"
	"repro/internal/morton"
	"repro/internal/nbody"
	"repro/internal/octree"
	"repro/internal/perf"
	"repro/internal/pm"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/vec"
)

// ---------------------------------------------------------------------
// Component benchmarks
// ---------------------------------------------------------------------

func benchSystem(n int, seed uint64) *nbody.System {
	return nbody.Plummer(n, 1, 1, 1, rng.New(seed))
}

func BenchmarkTreeBuildMorton(b *testing.B) {
	s := benchSystem(50000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := octree.Build(s.Clone(), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(50000*b.N)/b.Elapsed().Seconds(), "particles/s")
}

// Ablation: naive insertion build vs the Morton build above.
func BenchmarkTreeBuildInsertion(b *testing.B) {
	s := benchSystem(50000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := octree.BuildInsertion(s.Clone(), 8); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(50000*b.N)/b.Elapsed().Seconds(), "particles/s")
}

func BenchmarkMortonKeys(b *testing.B) {
	s := benchSystem(100000, 2)
	box := s.Bounds().Cube()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		morton.Keys(s.Pos, box)
	}
	b.ReportMetric(float64(100000*b.N)/b.Elapsed().Seconds(), "keys/s")
}

func BenchmarkWalkModified(b *testing.B) {
	s := benchSystem(50000, 3)
	tc := core.New(core.Options{Theta: 0.75, Ncrit: 2000, G: 1}, &core.CountEngine{})
	var inter int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := tc.ComputeForces(s.Clone())
		if err != nil {
			b.Fatal(err)
		}
		inter = st.Interactions
	}
	b.ReportMetric(float64(inter), "interactions/step")
}

func BenchmarkWalkOriginal(b *testing.B) {
	s := benchSystem(50000, 3)
	tc := core.New(core.Options{Theta: 0.75, G: 1}, nil)
	var inter int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := tc.CountOriginal(s.Clone())
		if err != nil {
			b.Fatal(err)
		}
		inter = c
	}
	b.ReportMetric(float64(inter), "interactions/step")
}

// BenchmarkHostKernel measures the float64 force pipeline rate.
func BenchmarkHostKernel(b *testing.B) {
	const ni, nj = 96, 2000
	req := kernelRequest(ni, nj)
	e := &core.HostEngine{G: 1, Eps: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Accumulate(req)
	}
	b.ReportMetric(float64(ni*nj*b.N)/b.Elapsed().Seconds(), "interactions/s")
}

func kernelRequest(ni, nj int) *core.Request {
	r := rng.New(9)
	req := &core.Request{
		IPos: make([]vec.V3, ni),
		Acc:  make([]vec.V3, ni),
		Pot:  make([]float64, ni),
	}
	for i := range req.IPos {
		req.IPos[i] = vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
	}
	for j := 0; j < nj; j++ {
		req.J.Append(r.Uniform(-50, 50), r.Uniform(-50, 50), r.Uniform(-50, 50), 1)
	}
	req.J.Pad()
	return req
}

func BenchmarkDirectSum(b *testing.B) {
	s := benchSystem(2000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nbody.DirectForces(s, 1, 0.01)
	}
	b.ReportMetric(float64(2000*1999*b.N)/b.Elapsed().Seconds(), "interactions/s")
}

func BenchmarkFFT3D(b *testing.B) {
	g, err := fft.NewGrid3(64)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(5)
	for i := range g.Data {
		g.Data[i] = complex(r.Normal(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Forward()
		g.Inverse()
	}
}

func BenchmarkZeldovichICs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs, err := NewCosmoSphere(CosmoSphereParams{GridN: 32, Seed: uint64(i + 1)}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if cs.Sys.N() == 0 {
			b.Fatal("empty realisation")
		}
	}
}

func BenchmarkLeapfrogStep(b *testing.B) {
	s := benchSystem(10000, 6)
	sim, err := NewSimulation(s, Config{Theta: 0.75, Ncrit: 500, G: 1, Eps: 0.02, DT: 1e-4, Engine: EngineHost})
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.Prime(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Experiment benchmarks (one per table/figure/number of the paper)
// ---------------------------------------------------------------------

// BenchmarkE1PeakAccounting — §2: peak = 32 pipes × 90 MHz × 38 ops.
func BenchmarkE1PeakAccounting(b *testing.B) {
	cfg := g5.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if cfg.PeakFlops() != 109.44e9 {
			b.Fatalf("peak = %v", cfg.PeakFlops())
		}
	}
	b.ReportMetric(cfg.PeakFlops()/1e9, "peak-Gflops")
	b.ReportMetric(float64(cfg.PhysicalPipes()), "pipes")
}

// BenchmarkE2ForceAccuracy — §2: pairwise ≈0.3 %, total error dominated
// by the tree approximation.
func BenchmarkE2ForceAccuracy(b *testing.B) {
	model := benchSystem(3000, 7)
	ref := model.Clone()
	nbody.DirectForces(ref, 1, 0.01)

	var rmsHW, rmsHost float64
	for i := 0; i < b.N; i++ {
		rmsHW = treeError(b, model, ref, true)
		rmsHost = treeError(b, model, ref, false)
	}
	b.ReportMetric(rmsHW*100, "grape-total-err-%")
	b.ReportMetric(rmsHost*100, "host-total-err-%")
	b.ReportMetric(pairwiseError(b)*100, "pairwise-err-%")
}

func treeError(b *testing.B, model, ref *nbody.System, hw bool) float64 {
	b.Helper()
	s := model.Clone()
	var engine core.Engine
	if hw {
		cl, err := g5.NewCluster(g5.ClusterConfig{Board: g5.DefaultConfig(), G: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		if err := cl.SetScale(-20, 20); err != nil {
			b.Fatal(err)
		}
		if err := cl.SetEps(0.01); err != nil {
			b.Fatal(err)
		}
		engine = cl
	}
	tc := core.New(core.Options{Theta: 0.75, Ncrit: 256, G: 1, Eps: 0.01}, engine)
	if _, err := tc.ComputeForces(s); err != nil {
		b.Fatal(err)
	}
	st, err := analysis.CompareForces(s, ref)
	if err != nil {
		b.Fatal(err)
	}
	return st.RMS
}

func pairwiseError(b *testing.B) float64 {
	b.Helper()
	sys, err := g5.NewSystem(g5.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.SetScale(-100, 100); err != nil {
		b.Fatal(err)
	}
	r := rng.New(12345)
	var sum2 float64
	count := 0
	for k := 0; k < 5000; k++ {
		pi := vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
		pj := vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
		acc := make([]vec.V3, 1)
		pot := make([]float64, 1)
		if err := sys.Compute([]vec.V3{pi}, []vec.V3{pj}, []float64{1}, acc, pot); err != nil {
			b.Fatal(err)
		}
		d := pj.Sub(pi)
		r2 := d.Norm2()
		if r2 < 1e-4 {
			continue
		}
		exact := d.Scale(1 / (r2 * math.Sqrt(r2)))
		rel := acc[0].Sub(exact).Norm() / exact.Norm()
		sum2 += rel * rel
		count++
	}
	return math.Sqrt(sum2 / float64(count))
}

// cosmoSnapshot lazily builds one shared z=24 realisation for the
// experiment benches.
var cosmoSnapshot = struct {
	once sync.Once
	sys  *nbody.System
}{}

func sharedCosmoSnapshot(b *testing.B) *nbody.System {
	b.Helper()
	cosmoSnapshot.once.Do(func() {
		cs, err := NewCosmoSphere(CosmoSphereParams{GridN: 32, Seed: 1}, 1)
		if err != nil {
			b.Fatal(err)
		}
		cosmoSnapshot.sys = cs.Sys
	})
	return cosmoSnapshot.sys.Clone()
}

// BenchmarkE3NgSweep — §3: the optimal n_g for the DS10 + GRAPE-5
// ratio ("around 2000" at paper scale).
func BenchmarkE3NgSweep(b *testing.B) {
	s := sharedCosmoSnapshot(b)
	var best *perf.SweepPoint
	for i := 0; i < b.N; i++ {
		points, err := perf.NgSweep(s, 0.75,
			[]int{125, 250, 500, 1000, 2000, 4000, 8000}, perf.DS10(), g5.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		best = perf.Optimum(points)
	}
	if best != nil {
		b.ReportMetric(float64(best.Ncrit), "optimal-ng")
		b.ReportMetric(best.Report.TotalSeconds(), "step-s-at-optimum")
	}
}

// BenchmarkE4Headline — §5: per-step statistics and the modelled
// Gordon Bell run at this N (see cmd/perfreport -full for paper N).
func BenchmarkE4Headline(b *testing.B) {
	s := sharedCosmoSnapshot(b)
	var rep perf.StepReport
	var st *core.Stats
	for i := 0; i < b.N; i++ {
		hw, err := g5.NewSystem(g5.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		box := s.Bounds().Cube()
		if err := hw.SetScale(box.Min.X-1, box.Max.X+1); err != nil {
			b.Fatal(err)
		}
		tc := core.New(core.Options{Theta: 0.75, Ncrit: 2000}, perf.NewScheduleEngine(hw))
		st, err = tc.ComputeForces(s.Clone())
		if err != nil {
			b.Fatal(err)
		}
		rep = perf.ModelStep(perf.DS10(), st, hw.Counters())
	}
	b.ReportMetric(st.AvgList(), "avg-list")
	b.ReportMetric(rep.TotalSeconds(), "modelled-step-s")
	b.ReportMetric(float64(rep.Interactions)*38/rep.TotalSeconds()/1e9, "raw-Gflops")
}

// BenchmarkE5EffectiveOps — §5: modified/original interaction ratio
// (paper: 2.90e13 / 4.69e12 ≈ 6.2).
func BenchmarkE5EffectiveOps(b *testing.B) {
	s := sharedCosmoSnapshot(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		ce := &core.CountEngine{}
		stats, err := core.New(core.Options{Theta: 0.75, Ncrit: 2000, G: 1}, ce).ComputeForces(s.Clone())
		if err != nil {
			b.Fatal(err)
		}
		orig, err := core.New(core.Options{Theta: 0.75, G: 1}, nil).CountOriginal(s.Clone())
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(stats.Interactions) / float64(orig)
	}
	b.ReportMetric(ratio, "modified/original")
}

// evolvedSnapshot lazily evolves a small sphere to z=0 for the
// Figure-4 bench.
var evolvedSnapshot = struct {
	once sync.Once
	sys  *nbody.System
}{}

// BenchmarkE6Snapshot — Figure 4: render the 45×45×2.5 Mpc slab of an
// evolved sphere and report its clustering contrast.
func BenchmarkE6Snapshot(b *testing.B) {
	evolvedSnapshot.once.Do(func() {
		cs, err := NewCosmoSphere(CosmoSphereParams{GridN: 16, Seed: 1}, 250)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := NewSimulation(cs.Sys, Config{
			Theta: 0.75, Ncrit: 256, Eps: cs.GridSpacing * cs.AInit,
			DT: cs.Schedule.DT(), Engine: EngineHost,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Run(250); err != nil {
			b.Fatal(err)
		}
		sim.Sys.Recenter()
		evolvedSnapshot.sys = sim.Sys
	})
	var contrast float64
	var kept int
	for i := 0; i < b.N; i++ {
		// The paper's thin slab (for the image)...
		slab, err := analysis.Project(evolvedSnapshot.sys, analysis.Figure4Slab(50), 256, 256)
		if err != nil {
			b.Fatal(err)
		}
		kept = slab.Kept
		// ...and a full-depth projection for the clustering metric
		// (the thin slab holds too few particles at bench scale).
		full, err := analysis.Project(evolvedSnapshot.sys, analysis.SlabSpec{
			XMin: -50, XMax: 50, YMin: -50, YMax: 50, ZMin: -50, ZMax: 50}, 32, 32)
		if err != nil {
			b.Fatal(err)
		}
		contrast = full.ClusteringContrast()
	}
	b.ReportMetric(contrast, "clustering-contrast")
	b.ReportMetric(float64(kept), "slab-particles")
}

// BenchmarkE7PricePerformance — §4/§5: $40,900 system; $/Mflops from
// the paper's own totals must come out at 7.
func BenchmarkE7PricePerformance(b *testing.B) {
	var ppm, dollars float64
	for i := 0; i < b.N; i++ {
		gb := perf.PaperGordonBell()
		ppm = gb.PricePerMflops()
		dollars = gb.Cost.TotalDollars()
	}
	b.ReportMetric(ppm, "$/Mflops")
	b.ReportMetric(dollars, "system-$")
}

// BenchmarkE8ParticleMass — §5: 1.7e10 Msun per particle.
func BenchmarkE8ParticleMass(b *testing.B) {
	var m float64
	for i := 0; i < b.N; i++ {
		m = units.ParticleMass(units.OmegaM, units.LittleH, units.PaperRadiusMpc, units.PaperN)
	}
	b.ReportMetric(m*1e10/1e10, "1e10-Msun")
}

// ---------------------------------------------------------------------
// Ablation benchmarks (design choices called out in DESIGN.md)
// ---------------------------------------------------------------------

// Grouping on/off: cost of the modified vs original algorithm on the
// host (walk + evaluation, float64).
func BenchmarkAblationGroupingOn(b *testing.B) {
	s := benchSystem(20000, 8)
	tc := core.New(core.Options{Theta: 0.75, Ncrit: 2000, G: 1, Eps: 0.01}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.ComputeForces(s.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGroupingOff(b *testing.B) {
	s := benchSystem(20000, 8)
	tc := core.New(core.Options{Theta: 0.75, G: 1, Eps: 0.01}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.ComputeForcesOriginal(s.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// MAC variant: geometric vs bmax opening criterion (cost side; accuracy
// is covered by octree tests).
func BenchmarkAblationMACGeometric(b *testing.B) {
	benchMAC(b, false)
}

func BenchmarkAblationMACBmax(b *testing.B) {
	benchMAC(b, true)
}

func benchMAC(b *testing.B, useBmax bool) {
	s := benchSystem(20000, 9)
	tc := core.New(core.Options{Theta: 0.75, UseBmax: useBmax, Ncrit: 1000, G: 1}, &core.CountEngine{})
	var inter int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := tc.ComputeForces(s.Clone())
		if err != nil {
			b.Fatal(err)
		}
		inter = st.Interactions
	}
	b.ReportMetric(float64(inter), "interactions/step")
}

// Traversal parallelism: workers 1 vs 4 (on multi-core hosts the
// speedup shows; on 1 CPU this documents the overhead).
func BenchmarkAblationWorkers1(b *testing.B) { benchWorkers(b, 1) }
func BenchmarkAblationWorkers4(b *testing.B) { benchWorkers(b, 4) }

func benchWorkers(b *testing.B, w int) {
	s := benchSystem(20000, 10)
	tc := core.New(core.Options{Theta: 0.75, Ncrit: 500, G: 1, Eps: 0.01, Workers: w}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.ComputeForces(s.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Additional component benches: radix sort, FoF, driver, and the
// original-on-GRAPE counterfactual.
// ---------------------------------------------------------------------

func BenchmarkMortonSortRadix(b *testing.B) {
	s := benchSystem(200000, 11)
	keys := morton.Keys(s.Pos, s.Bounds().Cube())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		morton.SortOrderRadix(keys)
	}
	b.ReportMetric(float64(len(keys)*b.N)/b.Elapsed().Seconds(), "keys/s")
}

func BenchmarkMortonSortComparison(b *testing.B) {
	s := benchSystem(200000, 11)
	keys := morton.Keys(s.Pos, s.Bounds().Cube())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		morton.SortOrder(keys)
	}
	b.ReportMetric(float64(len(keys)*b.N)/b.Elapsed().Seconds(), "keys/s")
}

func BenchmarkFriendsOfFriends(b *testing.B) {
	s := sharedCosmoSnapshot(b)
	b.ResetTimer()
	var halos int
	for i := 0; i < b.N; i++ {
		hs, err := analysis.FriendsOfFriends(s, analysis.FOFOptions{})
		if err != nil {
			b.Fatal(err)
		}
		halos = len(hs)
	}
	b.ReportMetric(float64(halos), "halos")
}

func BenchmarkDriverDirectSum(b *testing.B) {
	// The classic GRAPE workload: persistent j-memory, i-chunked sweep.
	s := benchSystem(5000, 12)
	d, err := g5.Open(g5.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := d.SetRange(-20, 20); err != nil {
		b.Fatal(err)
	}
	d.SetEpsToAll(0.02)
	if err := d.SetXMJ(0, s.Pos, s.Mass); err != nil {
		b.Fatal(err)
	}
	np := d.NumberOfPipelines()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < s.N(); lo += np {
			hi := lo + np
			if hi > s.N() {
				hi = s.N()
			}
			if err := d.CalculateForceOnX(s.Pos[lo:hi], s.Acc[lo:hi], s.Pot[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(s.N())*float64(s.N())*float64(b.N)/b.Elapsed().Seconds(), "interactions/s")
}

// Ablation: the original algorithm driven through the GRAPE timing
// model — per-particle batches waste 95/96 virtual pipelines, which is
// the §3 argument for grouping. Reported metric: modelled hardware
// seconds per step, to be compared against BenchmarkAblationModifiedOnGRAPE.
func BenchmarkAblationOriginalOnGRAPE(b *testing.B) {
	s := benchSystem(20000, 13)
	var hw float64
	for i := 0; i < b.N; i++ {
		sys, err := g5.NewSystem(g5.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.SetScale(-20, 20); err != nil {
			b.Fatal(err)
		}
		tc := core.New(core.Options{Theta: 0.75, G: 1, Eps: 0.01}, perf.NewScheduleEngine(sys))
		if _, err := tc.ComputeForcesOriginalOnEngine(s.Clone()); err != nil {
			b.Fatal(err)
		}
		hw = sys.Counters().HWSeconds()
	}
	b.ReportMetric(hw, "modelled-hw-s/step")
}

func BenchmarkAblationModifiedOnGRAPE(b *testing.B) {
	s := benchSystem(20000, 13)
	var hw float64
	for i := 0; i < b.N; i++ {
		sys, err := g5.NewSystem(g5.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.SetScale(-20, 20); err != nil {
			b.Fatal(err)
		}
		tc := core.New(core.Options{Theta: 0.75, Ncrit: 2000, G: 1, Eps: 0.01}, perf.NewScheduleEngine(sys))
		if _, err := tc.ComputeForces(s.Clone()); err != nil {
			b.Fatal(err)
		}
		hw = sys.Counters().HWSeconds()
	}
	b.ReportMetric(hw, "modelled-hw-s/step")
}

// ---------------------------------------------------------------------
// Extension experiments: board scaling, PM baseline, tree reuse.
// ---------------------------------------------------------------------

// Board-count scaling: the modelled step time as a GRAPE-5 installation
// grows. Pipeline time scales down with boards; the host share does not
// (Amdahl) — the balance that capped single-host GRAPE systems.
func BenchmarkScalingBoards1(b *testing.B) { benchBoards(b, 1) }
func BenchmarkScalingBoards2(b *testing.B) { benchBoards(b, 2) }
func BenchmarkScalingBoards4(b *testing.B) { benchBoards(b, 4) }
func BenchmarkScalingBoards8(b *testing.B) { benchBoards(b, 8) }

func benchBoards(b *testing.B, boards int) {
	s := sharedCosmoSnapshot(b)
	cfg := g5.DefaultConfig()
	cfg.Boards = boards
	var rep perf.StepReport
	for i := 0; i < b.N; i++ {
		hw, err := g5.NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		box := s.Bounds().Cube()
		if err := hw.SetScale(box.Min.X-1, box.Max.X+1); err != nil {
			b.Fatal(err)
		}
		tc := core.New(core.Options{Theta: 0.5, Ncrit: 2000}, perf.NewScheduleEngine(hw))
		st, err := tc.ComputeForces(s.Clone())
		if err != nil {
			b.Fatal(err)
		}
		rep = perf.ModelStep(perf.DS10(), st, hw.Counters())
	}
	b.ReportMetric(rep.PipeSeconds, "pipe-s")
	b.ReportMetric(rep.TotalSeconds(), "step-s")
	b.ReportMetric(float64(cfg.PeakFlops())/1e9, "peak-Gflops")
}

// PM baseline: wall-clock of a PM force solve vs the treecode at the
// same N (PM error characteristics are covered in internal/pm tests).
func BenchmarkPMForces(b *testing.B) {
	s := benchSystem(20000, 15)
	box := s.Bounds().Cube()
	grow := box.MaxEdge() * 0.05
	box.Min = box.Min.Sub(vec.V3{X: grow, Y: grow, Z: grow})
	box.Max = box.Max.Add(vec.V3{X: grow, Y: grow, Z: grow})
	solver, err := pm.NewSolver(64, box, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := solver.Forces(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeForcesSameN(b *testing.B) {
	s := benchSystem(20000, 15)
	tc := core.New(core.Options{Theta: 0.75, Ncrit: 500, G: 1, Eps: 0.1}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.ComputeForces(s.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// Tree reuse ablation: build cost with rebuild-every-step vs
// rebuild-every-5 (refresh in between).
func BenchmarkAblationRebuildAlways(b *testing.B) { benchReuse(b, 1) }
func BenchmarkAblationRebuildEvery5(b *testing.B) { benchReuse(b, 5) }

func benchReuse(b *testing.B, every int) {
	s := benchSystem(30000, 16)
	tc := core.New(core.Options{Theta: 0.75, Ncrit: 500, G: 1, Eps: 0.01,
		RebuildEvery: every}, &core.CountEngine{})
	b.ResetTimer()
	var build float64
	var steps int
	for i := 0; i < b.N; i++ {
		// Five consecutive force calls per op so the reuse policy is
		// exercised even at -benchtime 1x.
		for k := 0; k < 5; k++ {
			st, err := tc.ComputeForces(s)
			if err != nil {
				b.Fatal(err)
			}
			build += st.BuildTime.Seconds()
			steps++
		}
	}
	b.ReportMetric(build/float64(steps)*1e3, "build-ms/step")
}

// Direct-vs-tree crossover: the §1 motivation. Direct O(N²) on GRAPE-5
// beats the treecode at small N (perfect pipelining, no tree overhead)
// and loses by orders of magnitude at the paper's N. Reported metric:
// the modelled direct/tree time ratio at N=64k and at the paper's N.
func BenchmarkCrossoverDirectVsTree(b *testing.B) {
	systems := []*nbody.System{
		benchSystem(1000, 17),
		benchSystem(64000, 18),
	}
	var small, large float64
	for i := 0; i < b.N; i++ {
		points, err := perf.Crossover(systems, 0.75, 2000, g5.DefaultConfig(), perf.DS10())
		if err != nil {
			b.Fatal(err)
		}
		small = points[0].DirectSeconds / points[0].TreeSeconds
		large = points[1].DirectSeconds / points[1].TreeSeconds
	}
	paperN, err := perf.DirectStepModel(2159038, g5.DefaultConfig(), perf.DS10())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(small, "direct/tree@1k")
	b.ReportMetric(large, "direct/tree@64k")
	b.ReportMetric(paperN.TotalSeconds()/60, "direct-min/step@paperN")
}
