package main

import (
	"errors"
	"fmt"
	"sync/atomic"

	grape5 "repro"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/integrate"
	"repro/internal/nbody"
	"repro/internal/obs"
)

// pipeline is the step pipeline of grape5.Simulation rebuilt from the
// same public constructors, with a span around every call into a
// layer. The integrator is always the block leapfrog: with one rung it
// is bitwise the fixed-dt leapfrog Simulation runs, so one pipeline
// serves both kinds of workload.
//
// Span names and their parents:
//
//	step             one timed step (root)
//	  integrate      BlockLeapfrog.Step
//	    force        the integrator's force callback
//	      core       Treecode.ComputeForces / ComputeForcesActive
//	        <layer>.accumulate   Engine.Accumulate (layer g5 or hostk)
//	        g5.flush             BatchedEngine.Flush
//	  ckpt.save      ckpt.Store.Save
//	prime            BlockLeapfrog.Prime (root, not a timed step)
type pipeline struct {
	sys   *nbody.System
	cfg   grape5.Config
	tr    *tracer
	ob    *obs.Observer
	layer string // engine layer name: "g5" or "hostk"

	tc      *core.Treecode
	hw      *g5.System  // single-system GRAPE runs
	cluster *g5.Cluster // sharded runs
	bl      *integrate.BlockLeapfrog
	store   *ckpt.Store // nil: no checkpoint per step

	// parent is the span the integrator's force callbacks nest under;
	// coreSpan is the span engine calls nest under. Walk workers read
	// coreSpan concurrently.
	parent   int64
	coreSpan atomic.Int64

	nsteps int64
	time   float64
}

// newPipeline builds the traced pipeline over sys (used in place) with
// the configuration a Simulation would get from cfg. A non-empty
// ckptDir checkpoints after every step.
func newPipeline(sys *nbody.System, cfg grape5.Config, tr *tracer, ckptDir string) (*pipeline, error) {
	if cfg.G == 0 {
		cfg.G = grape5.G
	}
	p := &pipeline{sys: sys, cfg: cfg, tr: tr, ob: obs.NewObserver(), layer: "hostk"}
	opt := core.Options{
		Theta: cfg.Theta, Ncrit: cfg.Ncrit, LeafCap: cfg.LeafCap, G: cfg.G, Eps: cfg.Eps,
		Workers: cfg.Workers, RebuildEvery: cfg.RebuildEvery,
		ActiveRebuildFrac: cfg.ActiveRebuildFrac, Obs: p.ob,
	}

	var engine core.Engine
	switch cfg.Engine {
	case grape5.EngineHost:
		engine = &core.HostEngine{G: cfg.G, Eps: cfg.Eps}
	case grape5.EngineGRAPE5:
		p.layer = "g5"
		board := cfg.GRAPE
		if board.Boards == 0 {
			board = g5.DefaultConfig()
		}
		if cfg.Shards > 1 {
			cl, err := g5.NewCluster(g5.ClusterConfig{Shards: cfg.Shards, Board: board, G: cfg.G, Guard: cfg.GuardPolicy})
			if err != nil {
				return nil, err
			}
			if err := cl.SetEps(cfg.Eps); err != nil {
				return nil, errors.Join(err, cl.Close())
			}
			cl.SetObserver(p.ob)
			p.cluster = cl
			engine = cl
			break
		}
		if !cfg.Guard {
			return nil, fmt.Errorf("the traced pipeline drives GRAPE-5 through the guard only")
		}
		hw, err := g5.NewSystem(board)
		if err != nil {
			return nil, err
		}
		if err := hw.SetEps(cfg.Eps); err != nil {
			return nil, err
		}
		hw.SetObserver(p.ob)
		guard := g5.NewGuardedEngine(hw, cfg.G, cfg.GuardPolicy)
		guard.SetObserver(p.ob)
		p.hw = hw
		engine = guard
	default:
		return nil, fmt.Errorf("engine kind %d is not traced", cfg.Engine)
	}
	shim := &engineShim{inner: engine, name: p.layer + ".accumulate", tr: tr, parent: &p.coreSpan}
	if be, ok := engine.(core.BatchedEngine); ok {
		p.tc = core.New(opt, &batchedShim{engineShim: shim, flush: be.Flush})
	} else {
		p.tc = core.New(opt, shim)
	}

	crit := integrate.RungCriterion{Eta: cfg.Eta, Eps: cfg.Eps, DTMin: cfg.DT}
	if cfg.Blocks > 0 {
		crit.DTMin, crit.MaxRung = cfg.DTMin, cfg.Blocks-1
	}
	bl, err := integrate.NewBlockLeapfrog(crit, p.force, p.forceActive)
	if err != nil {
		return nil, errors.Join(err, p.close())
	}
	bl.Workers = cfg.Workers
	p.bl = bl
	if ckptDir != "" {
		if p.store, err = ckpt.OpenStore(ckptDir, 2); err != nil {
			return nil, errors.Join(err, p.close())
		}
	}
	return p, nil
}

func (p *pipeline) close() error {
	if p.cluster != nil {
		return p.cluster.Close()
	}
	return nil
}

// prime computes the initial forces and rungs.
func (p *pipeline) prime() error {
	id, t0 := p.tr.open()
	p.parent = id
	err := p.bl.Prime(p.sys)
	p.tr.close(id, 0, "prime", t0, 0)
	return err
}

// step advances one step (one block) and checkpoints when a store is
// set. It returns the step span's ID.
func (p *pipeline) step() (int64, error) {
	sid, t0 := p.tr.open()
	iid, i0 := p.tr.open()
	p.parent = iid
	err := p.bl.Step(p.sys)
	p.tr.close(iid, sid, "integrate", i0, 0)
	if err == nil {
		p.nsteps++
		p.time += p.bl.Crit.Span()
		if p.store != nil {
			cid, c0 := p.tr.open()
			var info ckpt.SaveInfo
			info, err = p.store.Save(&ckpt.Checkpoint{State: p.state(), Sys: p.sys, Block: p.blockState()})
			p.tr.close(cid, sid, "ckpt.save", c0, info.Bytes)
		}
	}
	p.tr.close(sid, 0, "step", t0, 0)
	return sid, err
}

// state is the scalar checkpoint state: the same fields in the same
// fixed-size layout Simulation.CheckpointState fills.
func (p *pipeline) state() ckpt.State {
	return ckpt.State{
		Step: p.nsteps, Time: p.time, DT: p.bl.Crit.Span(),
		Theta: p.cfg.Theta, Eps: p.cfg.Eps, G: p.cfg.G,
		Ncrit: int64(p.cfg.Ncrit), LeafCap: int64(p.cfg.LeafCap),
		Engine: int64(p.cfg.Engine), Shards: int64(p.cfg.Shards),
		Primed: p.bl.Primed(),
	}
}

func (p *pipeline) blockState() *ckpt.BlockState {
	if p.cfg.Blocks == 0 {
		return nil
	}
	return &ckpt.BlockState{
		Mode: ckpt.ModeBlock, Tick: p.bl.Tick(), DTMin: p.cfg.DTMin, Eta: p.cfg.Eta,
		MaxRung: int64(p.cfg.Blocks - 1), Rungs: p.bl.Rungs(),
	}
}

func (p *pipeline) force(s *nbody.System) error { return p.forceSet(s, nil, 0) }

func (p *pipeline) forceActive(s *nbody.System, active []bool, n int) error {
	return p.forceSet(s, active, n)
}

// forceSet is the force callback: rescale the hardware window as
// Simulation does, then run the treecode over the full or the active
// set.
func (p *pipeline) forceSet(s *nbody.System, active []bool, n int) error {
	fid, f0 := p.tr.open()
	err := p.setScaleWindow(s)
	if err == nil {
		cid, c0 := p.tr.open()
		p.coreSpan.Store(cid)
		if active == nil {
			_, err = p.tc.ComputeForces(s)
		} else {
			_, err = p.tc.ComputeForcesActive(s, active, n)
		}
		p.tr.close(cid, fid, "core", c0, 0)
	}
	p.tr.close(fid, p.parent, "force", f0, 0)
	return err
}

// setScaleWindow re-ranges the GRAPE fixed-point window to the current
// particle bounds with a 5% margin, exactly as Simulation does before
// every force call.
func (p *pipeline) setScaleWindow(s *nbody.System) error {
	if p.hw == nil && p.cluster == nil {
		return nil
	}
	cube := s.Bounds().Cube()
	ext := cube.MaxEdge()
	if ext == 0 {
		ext = 1
	}
	lo := min(cube.Min.X-0.05*ext, cube.Min.Y-0.05*ext, cube.Min.Z-0.05*ext)
	hi := max(cube.Max.X+0.05*ext, cube.Max.Y+0.05*ext, cube.Max.Z+0.05*ext)
	if p.cluster != nil {
		return p.cluster.SetScale(lo, hi)
	}
	return p.hw.SetScale(lo, hi)
}

// hwCounters returns the modelled GRAPE-5 activity so far (zero for the
// host engine).
func (p *pipeline) hwCounters() g5.Counters {
	switch {
	case p.cluster != nil:
		return p.cluster.Counters()
	case p.hw != nil:
		return p.hw.Counters()
	}
	return g5.Counters{}
}

// engineShim times every Accumulate into the real engine. Engine calls
// arrive concurrently from the walk workers.
type engineShim struct {
	inner  core.Engine
	name   string
	tr     *tracer
	parent *atomic.Int64
}

func (e *engineShim) Accumulate(req *core.Request) {
	parent := e.parent.Load()
	id, t0 := e.tr.open()
	e.inner.Accumulate(req)
	e.tr.close(id, parent, e.name, t0, int64(len(req.IPos))*int64(req.J.N))
}

// batchedShim is the shim for an engine that stages batches; the
// treecode calls Flush only on engines that have it, so the plain shim
// must not.
type batchedShim struct {
	*engineShim
	flush func() error
}

func (b *batchedShim) Flush() error {
	parent := b.parent.Load()
	id, t0 := b.tr.open()
	err := b.flush()
	b.tr.close(id, parent, "g5.flush", t0, 0)
	return err
}
