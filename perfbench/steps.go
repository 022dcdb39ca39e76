package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	grape5 "repro"
	"repro/internal/ckpt"
	"repro/internal/obs"
)

// stepWorkload times grape5.Simulation.Step on generated initial
// conditions.
type stepWorkload struct {
	name string
	// ics generates the initial conditions and the configuration for a
	// seed.
	ics func(seed uint64) (*grape5.System, grape5.Config, error)
	// ckpt checkpoints into an on-disk ckpt.Store after every step, and
	// the step's time includes it.
	ckpt bool
	// energySteps is the number of timed steps energy_err spans; a run
	// always takes at least this many.
	energySteps int
	// forceTol and energyTol bound force_err_rms and energy_err.
	forceTol, energyTol float64
}

// setupReps is how many times a run builds and primes the simulation;
// setup_s is the median.
const setupReps = 5

// cosmoICs is the paper's workload: a standard-CDM sphere from z=24 on
// the 999-step schedule, softening at the initial physical spacing,
// θ=0.75 and n_g=2000 on the emulated GRAPE-5.
func cosmoICs(shards int) func(seed uint64) (*grape5.System, grape5.Config, error) {
	return func(seed uint64) (*grape5.System, grape5.Config, error) {
		cs, err := grape5.NewCosmoSphere(grape5.CosmoSphereParams{GridN: 32, Seed: seed}, 999)
		if err != nil {
			return nil, grape5.Config{}, err
		}
		cfg := grape5.Config{
			Theta: 0.75, Ncrit: 2000, Eps: cs.GridSpacing * cs.AInit, DT: cs.Schedule.DT(),
			Engine: grape5.EngineGRAPE5, Guard: true, Shards: shards,
		}
		return cs.Sys, cfg, nil
	}
}

var (
	cosmoK1 = stepWorkload{
		name: "cosmo-k1", ics: cosmoICs(1), energySteps: 2,
		forceTol: 0.02, energyTol: 5e-3,
	}
	cosmoK2 = stepWorkload{
		name: "cosmo-k2", ics: cosmoICs(2), energySteps: 2,
		forceTol: 0.02, energyTol: 5e-3,
	}
	hernquistBlocks = stepWorkload{
		name: "hernquist-blocks",
		ics: func(seed uint64) (*grape5.System, grape5.Config, error) {
			cfg := grape5.Config{
				Theta: 0.75, Ncrit: 256, G: 1, Eps: 0.005,
				Engine: grape5.EngineHost, Blocks: 8, DTMin: 1.0 / 512,
			}
			return grape5.Hernquist(32768, 1, 1, 1, seed), cfg, nil
		},
		ckpt: true, energySteps: 1,
		forceTol: 0.02, energyTol: 1e-3,
	}
)

// newSim builds and primes a simulation over a copy of sys0 and returns
// it with the time that took.
func newSim(sys0 *grape5.System, cfg grape5.Config) (*grape5.Simulation, float64, error) {
	sys := sys0.Clone()
	t0 := time.Now()
	sim, err := grape5.NewSimulation(sys, cfg)
	if err != nil {
		return nil, 0, err
	}
	if err := sim.Prime(); err != nil {
		return nil, 0, errors.Join(err, sim.Close())
	}
	return sim, elapsed(t0), nil
}

// timedSteps steps sim for at least minSteps steps and until the time
// runs out, checkpointing into store (when non-nil) inside each step's
// time. after runs after every step, outside the timing.
func timedSteps(res *result, sim *grape5.Simulation, store *ckpt.Store, seconds float64, minSteps int, after func(k int)) []float64 {
	var walls []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for k := 0; k < minSteps || time.Now().Before(deadline); k++ {
		t0 := time.Now()
		err := sim.Step()
		if err == nil && store != nil {
			_, err = sim.Checkpoint(store)
		}
		walls = append(walls, elapsed(t0))
		res.op(err)
		if err != nil {
			break
		}
		after(k + 1)
	}
	return walls
}

func (w stepWorkload) run(c *runCtx) (*result, error) {
	sys0, cfg, err := w.ics(c.seed)
	if err != nil {
		return nil, err
	}
	c.meta.N = sys0.N()
	if c.trace {
		return w.runTraced(c, sys0, cfg)
	}
	res := newResult()

	var sim *grape5.Simulation
	var setups []float64
	for r := 0; r < setupReps; r++ {
		s, dt, err := newSim(sys0, cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, dt)
		if sim != nil {
			if err := sim.Close(); err != nil {
				return nil, err
			}
		}
		sim = s
	}
	defer sim.Close()
	res.set("setup_s", median(setups))

	store, err := w.store(c, "ckpt")
	if err != nil {
		return nil, err
	}
	runtime.GC()
	heap := liveHeap()
	walls, _ := w.checkedSteps(res, sim, store, c.seconds, func() { heap = max(heap, liveHeap()) })
	runtime.GC()
	heap = max(heap, liveHeap())
	res.set("step_wall_s", median(walls))
	res.set("heap_peak_bytes", heap)
	return res, nil
}

// store opens the on-disk checkpoint store a checkpointing workload
// saves into, or returns nil for the others.
func (w stepWorkload) store(c *runCtx, name string) (*ckpt.Store, error) {
	if !w.ckpt {
		return nil, nil
	}
	return ckpt.OpenStore(filepath.Join(c.work, name), 2)
}

// accuracy is what the correctness checks of a step run measured.
type accuracy struct{ forceErr, energyErr float64 }

// checkedSteps runs the timed steps of a primed simulation between the
// accuracy checks: the force error of the primed state before the
// first step, the energy drift after energySteps steps. after runs
// after every step, outside the timing.
func (w stepWorkload) checkedSteps(res *result, sim *grape5.Simulation, store *ckpt.Store, seconds float64, after func()) ([]float64, accuracy) {
	var acc accuracy
	acc.forceErr = forceErrRMS(sim.Sys, sim.Config().G, sim.Config().Eps)
	res.check(acc.forceErr > 0 && acc.forceErr <= w.forceTol,
		"force_err_rms %.3g outside (0, %g]", acc.forceErr, w.forceTol)
	e0 := sim.Energy()
	walls := timedSteps(res, sim, store, seconds, w.energySteps, func(k int) {
		after()
		if k == w.energySteps {
			acc.energyErr = energyErr(sim.Energy(), e0)
		}
	})
	res.check(acc.energyErr > 0 && acc.energyErr <= w.energyTol,
		"energy_err %.3g outside (0, %g]", acc.energyErr, w.energyTol)
	return walls, acc
}

// stepLayers is what one traced step's observer and hardware counters
// held; the rest of the per-layer numbers come from the spans.
type stepLayers struct {
	id                            int64 // step span
	mortonS, buildS, guardS       float64
	groups, nodes, interactions   int64
	substeps, activeI             int64
	recoveries, fallbacks, steals int64
	modelS                        float64
	shardInteractions             []int64
}

// runTraced runs the workload as the plain Simulation for half the
// time, then the same number of steps through the traced pipeline, and
// checks that both end in the same state bit for bit.
func (w stepWorkload) runTraced(c *runCtx, sys0 *grape5.System, cfg grape5.Config) (*result, error) {
	res := newResult()

	sim, _, err := newSim(sys0, cfg)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	store, err := w.store(c, "ckpt-plain")
	if err != nil {
		return nil, err
	}
	plain, acc := w.checkedSteps(res, sim, store, c.seconds/2, func() {})

	ckptDir := ""
	if w.ckpt {
		ckptDir = filepath.Join(c.work, "ckpt-traced")
	}
	tr := newTracer()
	p, err := newPipeline(sys0.Clone(), cfg, tr, ckptDir)
	if err != nil {
		return nil, err
	}
	defer p.close()
	if err := p.prime(); err != nil {
		return nil, fmt.Errorf("traced prime: %w", err)
	}
	var layers []stepLayers
	for k := 0; k < len(plain); k++ {
		before := p.hwCounters()
		var steals0 int64
		var shards0 []int64
		if p.cluster != nil {
			steals0, shards0 = p.cluster.Steals(), p.cluster.ShardInteractions()
		}
		p.ob.Reset()
		id, err := p.step()
		res.op(err)
		if err != nil {
			break
		}
		l := stepLayers{
			id:           id,
			mortonS:      p.ob.Seconds(obs.PhaseMortonSort),
			buildS:       p.ob.Seconds(obs.PhaseTreeBuild),
			guardS:       p.ob.Seconds(obs.PhaseGuard),
			groups:       p.ob.Count(obs.CntGroups),
			nodes:        p.ob.Count(obs.CntNodesVisited),
			interactions: p.ob.Count(obs.CntInteractions),
			substeps:     p.ob.Count(obs.CntSubsteps),
			activeI:      p.ob.Count(obs.CntActiveI),
			recoveries:   p.ob.Count(obs.CntRecoveries),
			fallbacks:    p.ob.Count(obs.CntFallbacks),
			modelS:       p.hwCounters().HWSeconds() - before.HWSeconds(),
		}
		if p.cluster != nil {
			l.steals = p.cluster.Steals() - steals0
			for i, n := range p.cluster.ShardInteractions() {
				l.shardInteractions = append(l.shardInteractions, n-shards0[i])
			}
		}
		layers = append(layers, l)
	}
	err = sameState(sim.Sys, p.sys)
	res.check(err == nil, "traced run differs from the plain run after %d steps: %v", len(plain), err)

	res.spans = tr.snapshot()
	layerMetrics(res, layers, p.layer, sys0.N(), median(plain))
	res.set("accuracy.force_err_rms", acc.forceErr)
	res.set("accuracy.energy_err", acc.energyErr)
	zeroLayers(res, "serve.")
	return res, nil
}

// layerMetrics derives the per-layer metrics from the spans and the
// per-step counters: per-step medians for times and rates, per-step
// medians of the exactly repeating counts.
func layerMetrics(res *result, layers []stepLayers, layer string, n int, plainWall float64) {
	t := newSpanTree(res.spans)
	byID := make(map[int64]span, len(res.spans))
	for _, s := range res.spans {
		byID[s.ID] = s
	}
	var (
		wall, integSelf, coreSelf, morton, build          []float64
		substeps, activeFrac, groups, nodes, interactions []float64
		busy, inflight, flush, calls, rate                []float64
		guard, recoveries, fallbacks, steals, imbalance   []float64
		model, ckptS, ckptBytes                           []float64
	)
	engine := layer + ".accumulate"
	for _, l := range layers {
		step := byID[l.id]
		wall = append(wall, step.seconds())
		// visibleS is the time the step waits in the engine layer:
		// the union of Accumulate and Flush spans. Engines that stage
		// work return from Accumulate at once and do it by the Flush.
		var selfI, selfC, busyS, inflightS, flushS, visibleS float64
		var nCalls, work int64
		for _, integ := range t.kids(step.ID, "integrate") {
			forces := t.kids(integ.ID, "force")
			selfI += float64(selfTime(integ.interval(), intervals(forces))) / 1e9
			for _, f := range forces {
				for _, c := range t.kids(f.ID, "core") {
					acc := t.kids(c.ID, engine)
					fl := t.kids(c.ID, "g5.flush")
					engineIvs := append(intervals(acc), intervals(fl)...)
					selfC += float64(selfTime(c.interval(), engineIvs)) / 1e9
					inflightS += float64(unionLength(intervals(acc))) / 1e9
					visibleS += float64(unionLength(engineIvs)) / 1e9
					for _, a := range acc {
						busyS += a.seconds()
						work += a.Work
					}
					for _, x := range fl {
						flushS += x.seconds()
					}
					nCalls += int64(len(acc))
				}
			}
		}
		selfC -= l.mortonS + l.buildS
		integSelf = append(integSelf, selfI)
		coreSelf = append(coreSelf, selfC)
		morton = append(morton, l.mortonS)
		build = append(build, l.buildS)
		substeps = append(substeps, float64(l.substeps))
		if l.substeps > 0 {
			activeFrac = append(activeFrac, float64(l.activeI)/(float64(n)*float64(l.substeps)))
		}
		groups = append(groups, float64(l.groups))
		nodes = append(nodes, float64(l.nodes))
		interactions = append(interactions, float64(l.interactions))
		busy = append(busy, busyS)
		inflight = append(inflight, inflightS)
		flush = append(flush, flushS)
		calls = append(calls, float64(nCalls))
		if visibleS > 0 {
			rate = append(rate, float64(work)/visibleS)
		}
		guard = append(guard, l.guardS)
		recoveries = append(recoveries, float64(l.recoveries))
		fallbacks = append(fallbacks, float64(l.fallbacks))
		steals = append(steals, float64(l.steals))
		imbalance = append(imbalance, maxOverMean(l.shardInteractions))
		model = append(model, l.modelS)
		for _, s := range t.kids(step.ID, "ckpt.save") {
			ckptS = append(ckptS, s.seconds())
			ckptBytes = append(ckptBytes, float64(s.Work))
		}
	}
	traced := median(wall)
	res.set("trace.step_wall_s", traced)
	res.set("trace.overhead_frac", traced/plainWall-1)
	res.set("integrate.self_s", median(integSelf))
	res.set("integrate.substeps", median(substeps))
	res.set("integrate.active_frac", median(activeFrac))
	res.set("core.self_s", median(coreSelf))
	res.set("core.groups", median(groups))
	res.set("core.nodes_visited", median(nodes))
	res.set("core.interactions", median(interactions))
	res.set("morton.sort_s", median(morton))
	res.set("octree.build_s", median(build))

	other := "g5."
	if layer == "g5" {
		other = "hostk."
	}
	zeroLayers(res, other)
	res.set(layer+".busy_s", median(busy))
	res.set(layer+".inflight_s", median(inflight))
	res.set(layer+".calls", median(calls))
	res.set(layer+".interactions_per_s", median(rate))
	res.set("g5.flush_s", median(flush))
	res.set("g5.guard_cpu_s", median(guard))
	res.set("g5.recoveries", median(recoveries))
	res.set("g5.fallbacks", median(fallbacks))
	res.set("g5.steals", median(steals))
	res.set("g5.shard_imbalance", median(imbalance))
	res.set("g5.model_s", median(model))
	res.set("ckpt.save_s", median(ckptS))
	res.set("ckpt.bytes", median(ckptBytes))
}

// maxOverMean returns max/mean of the shard loads, 0 without shards or
// load.
func maxOverMean(loads []int64) float64 {
	var sum, top int64
	for _, x := range loads {
		sum += x
		top = max(top, x)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(loads)) / float64(sum)
}
