package grape5

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/g5"
	"repro/internal/integrate"
	"repro/internal/nbody"
	"repro/internal/obs"
	"repro/internal/pm"
	"repro/internal/units"
)

// StepReport is the structured per-step telemetry (phase spans, work
// counters, recovery events) emitted by Simulation.Step.
type StepReport = obs.StepReport

// System is the particle container (structure-of-arrays positions,
// velocities, masses, stable IDs).
type System = nbody.System

// Stats reports the treecode work of one force evaluation.
type Stats = core.Stats

// EngineKind selects the force pipeline.
type EngineKind int

const (
	// EngineHost computes forces in float64 on the host — the paper's
	// "general purpose computer" baseline.
	EngineHost EngineKind = iota
	// EngineGRAPE5 offloads force evaluation to the emulated GRAPE-5.
	EngineGRAPE5
	// EnginePM replaces the treecode entirely with the particle-mesh
	// solver (isolated boundaries) — the classical fast baseline
	// algorithm. Theta/Ncrit are ignored; PMGrid sets the mesh. The
	// solver box tracks the system bounds each step, which adds
	// mesh-scale force noise on expanding systems; EnginePM is meant
	// for force comparisons and quick looks, not production cosmology.
	EnginePM
)

// Config describes a simulation.
type Config struct {
	// Theta is the Barnes-Hut opening parameter (default 0.75).
	Theta float64
	// Ncrit is the group-size bound of the modified tree algorithm
	// (the paper's n_g; default 2000).
	Ncrit int
	// LeafCap is the octree leaf capacity (default 8).
	LeafCap int
	// G is the gravitational constant (default units.G, the
	// Mpc/(km/s)/1e10-Msun system; set 1 for model-unit problems).
	G float64
	// Eps is the Plummer softening length.
	Eps float64
	// DT is the integration timestep.
	DT float64
	// Engine selects host or GRAPE-5 force evaluation.
	Engine EngineKind
	// GRAPE configures each board system when Engine is EngineGRAPE5;
	// the zero value means g5.DefaultConfig (the paper's 2-board
	// system). Set GRAPE.Fault to inject deterministic hardware faults.
	GRAPE g5.Config
	// Guard is accepted for compatibility and has no effect: every
	// EngineGRAPE5 run goes through the fault-tolerant offload path
	// (acceptance checks, retries, board exclusion, host fallback).
	Guard bool
	// GuardPolicy tunes the guard; the zero value selects defaults.
	GuardPolicy g5.GuardPolicy
	// Shards is the number K of independent GRAPE systems the
	// EngineGRAPE5 offload path (g5.Cluster) drives: group force
	// batches are spread across the boards and double-buffered so the
	// host walk overlaps the hardware drain. 0 and 1 both mean one
	// system. Results do not depend on K.
	Shards int
	// PMGrid is the particle-mesh size per dimension for EnginePM
	// (default 64; power of two).
	PMGrid int
	// RebuildEvery enables tree reuse: full rebuild every n-th force
	// call with centre-of-mass refreshes in between (0/1 = rebuild
	// always, the paper's mode).
	RebuildEvery int
	// Workers bounds traversal parallelism (0 = GOMAXPROCS).
	Workers int

	// Blocks, when greater than 0, selects hierarchical block-timestep
	// integration with Blocks power-of-two rung levels: particle rungs
	// k ∈ [0, Blocks-1] advance with dt = DTMin·2^k, and one Step spans
	// the full block DTMin·2^(Blocks-1). DT, if set, must equal that
	// span (unset inherits it). 0 selects a fixed shared DT, which runs
	// as the one-rung block schedule (DTMin = DT); Blocks == 1 is that
	// same schedule. Not supported with EnginePM.
	Blocks int
	// DTMin is the finest block timestep (required when Blocks > 0,
	// rejected otherwise).
	DTMin float64
	// Eta is the accuracy parameter of the rung criterion (Blocks > 0);
	// default 0.2.
	Eta float64
	// ActiveRebuildFrac tunes the block-timestep tree rebuild policy:
	// substeps whose active fraction reaches it rebuild, below it the
	// cached tree is refreshed (default 0.5).
	ActiveRebuildFrac float64
}

// Simulation couples a System to the treecode, a force engine and the
// block leapfrog integrator (a fixed DT is its one-rung schedule).
type Simulation struct {
	// Sys is the particle system (reordered into tree order by every
	// force evaluation; identity is in Sys.ID).
	Sys *System

	cfg     Config
	tc      *core.Treecode           // nil for EnginePM
	cluster *g5.Cluster              // nil unless EngineGRAPE5
	bl      *integrate.BlockLeapfrog // fixed DT runs with one rung
	ob      *obs.Observer
	time    float64
	nsteps  int
	aux     RunAux

	// base* hold the whole-run counters restored from a checkpoint; a
	// fresh process starts its live hardware counters at zero, so the
	// public accessors report base + live to keep run totals continuous
	// across restarts.
	baseCounters g5.Counters
	baseRecovery g5.Recovery
	baseFaults   g5.FaultStats

	// LastStats is the treecode statistics of the most recent force
	// evaluation.
	LastStats Stats
	// LastReport is the telemetry of the most recent Step (or Prime):
	// the paper's time-balance decomposition of the step — host tree
	// phases measured on this machine, GRAPE pipeline and transfer
	// phases in simulated hardware seconds — plus activity counters.
	LastReport StepReport
	// TotalInteractions accumulates pairwise interactions over the run.
	TotalInteractions int64
}

// NewSimulation builds a simulation over sys. sys is used in place (not
// copied); its particle IDs must be dense in [0, N). An EngineGRAPE5
// simulation owns shard goroutines: Close it when done.
func NewSimulation(sys *System, cfg Config) (*Simulation, error) {
	if sys == nil || sys.N() == 0 {
		return nil, fmt.Errorf("grape5: empty system")
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if cfg.Blocks <= 0 && cfg.DTMin != 0 {
		return nil, fmt.Errorf("grape5: DTMin %v is the finest block timestep; set Blocks too", cfg.DTMin)
	}
	if cfg.Blocks > 0 {
		if cfg.Engine == EnginePM {
			return nil, fmt.Errorf("grape5: block timesteps are not supported with the PM engine")
		}
		if cfg.DTMin <= 0 {
			return nil, fmt.Errorf("grape5: block timesteps need DTMin > 0, got %v", cfg.DTMin)
		}
		if cfg.Blocks > 31 {
			return nil, fmt.Errorf("grape5: at most 31 rung levels, got %d", cfg.Blocks)
		}
		span := cfg.DTMin * float64(int64(1)<<uint(cfg.Blocks-1))
		if cfg.DT == 0 {
			cfg.DT = span
		} else if cfg.DT != span {
			return nil, fmt.Errorf("grape5: DT %v conflicts with block span DTMin·2^(Blocks-1) = %v; leave DT unset to inherit it", cfg.DT, span)
		}
	}
	if cfg.DT <= 0 {
		return nil, fmt.Errorf("grape5: timestep must be positive, got %v", cfg.DT)
	}
	if cfg.G == 0 {
		cfg.G = units.G
	}

	sim := &Simulation{Sys: sys, cfg: cfg, ob: obs.NewObserver()}
	opt := core.Options{
		Theta:             cfg.Theta,
		Ncrit:             cfg.Ncrit,
		LeafCap:           cfg.LeafCap,
		G:                 cfg.G,
		Eps:               cfg.Eps,
		Workers:           cfg.Workers,
		RebuildEvery:      cfg.RebuildEvery,
		ActiveRebuildFrac: cfg.ActiveRebuildFrac,
		Obs:               sim.ob,
	}

	var engine core.Engine
	switch cfg.Engine {
	case EngineHost:
		engine = &core.HostEngine{G: cfg.G, Eps: cfg.Eps}
	case EngineGRAPE5:
		hwCfg := cfg.GRAPE
		if hwCfg.Boards == 0 {
			hwCfg = g5.DefaultConfig()
		}
		cl, err := g5.NewCluster(g5.ClusterConfig{
			Shards: max(cfg.Shards, 1), Board: hwCfg,
			G: cfg.G, Guard: cfg.GuardPolicy,
		})
		if err != nil {
			return nil, err
		}
		if err := cl.SetEps(cfg.Eps); err != nil {
			return nil, errors.Join(err, cl.Close())
		}
		cl.SetObserver(sim.ob)
		sim.cluster = cl
		engine = cl
	case EnginePM:
		if cfg.PMGrid == 0 {
			cfg.PMGrid = 64
		}
		sim.cfg = cfg
		// Solver is rebuilt per force call on the current bounds (the
		// sphere expands ~25x over a cosmological run).
	default:
		return nil, fmt.Errorf("grape5: unknown engine kind %d", cfg.Engine)
	}
	if cfg.Engine != EnginePM {
		sim.tc = core.New(opt, engine)
	}

	// A fixed DT is the one-rung schedule: every substep is a full-set
	// kick-drift-kick at DTMin = DT, bitwise the fixed-dt leapfrog.
	crit := integrate.RungCriterion{Eta: cfg.Eta, Eps: cfg.Eps, DTMin: cfg.DT}
	if cfg.Blocks > 0 {
		crit.DTMin, crit.MaxRung = cfg.DTMin, cfg.Blocks-1
	}
	force, forceActive := sim.force, sim.forceActive
	if cfg.Engine == EnginePM {
		force, forceActive = sim.forcePM, nil
	}
	bl, err := integrate.NewBlockLeapfrog(crit, force, forceActive)
	if err != nil {
		return nil, errors.Join(err, sim.Close())
	}
	bl.Workers = cfg.Workers
	sim.bl = bl
	return sim, nil
}

// forcePM is the ForceFunc for the particle-mesh engine.
func (sim *Simulation) forcePM(s *System) error {
	cube := s.Bounds().Cube()
	ext := cube.MaxEdge()
	if ext == 0 {
		ext = 1
	}
	grow := 0.05 * ext
	box := cube
	box.Min = box.Min.Sub(Vec3{X: grow, Y: grow, Z: grow})
	box.Max = box.Max.Add(Vec3{X: grow, Y: grow, Z: grow})
	solver, err := pm.NewSolver(sim.cfg.PMGrid, box, sim.cfg.G)
	if err != nil {
		return err
	}
	if err := solver.Forces(s); err != nil {
		return err
	}
	sim.LastStats = Stats{N: s.N()}
	return nil
}

// setScaleWindow re-ranges the hardware fixed-point window to the
// current particle bounds, exactly like the real GRAPE library: the
// sphere expands by ~25x over the headline run. No-op for host engines.
func (sim *Simulation) setScaleWindow(s *System) error {
	if sim.cluster == nil {
		return nil
	}
	cube := s.Bounds().Cube()
	ext := cube.MaxEdge()
	if ext == 0 {
		ext = 1
	}
	// Margin for the drift within the step.
	lo := min3(cube.Min.X-0.05*ext, cube.Min.Y-0.05*ext, cube.Min.Z-0.05*ext)
	hi := max3(cube.Max.X+0.05*ext, cube.Max.Y+0.05*ext, cube.Max.Z+0.05*ext)
	return sim.cluster.SetScale(lo, hi)
}

// force is the integrator's ForceFunc: rescale the hardware if present,
// run the grouped treecode, record statistics.
func (sim *Simulation) force(s *System) error {
	if err := sim.setScaleWindow(s); err != nil {
		return err
	}
	st, err := sim.tc.ComputeForces(s)
	if err != nil {
		return err
	}
	sim.LastStats = *st
	sim.TotalInteractions += st.Interactions
	return nil
}

// forceActive is the block integrator's substep ForceFunc: identical
// hardware windowing, but only the masked closing set is dispatched.
func (sim *Simulation) forceActive(s *System, activeByID []bool, nActive int) error {
	if err := sim.setScaleWindow(s); err != nil {
		return err
	}
	st, err := sim.tc.ComputeForcesActive(s, activeByID, nActive)
	if err != nil {
		return err
	}
	sim.LastStats = *st
	sim.TotalInteractions += st.Interactions
	return nil
}

func min3(a, b, c float64) float64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

func max3(a, b, c float64) float64 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}

// Prime computes initial forces (optional; Step does it on first call).
// The priming force call emits its own telemetry as step 0.
func (sim *Simulation) Prime() error {
	sim.ob.Reset()
	a0 := obs.HeapAllocBytes()
	t0 := time.Now()
	if err := sim.bl.Prime(sim.Sys); err != nil {
		return err
	}
	wall := time.Since(t0)
	alloc := int64(obs.HeapAllocBytes() - a0)
	sim.LastReport = sim.finishReport(0, wall)
	sim.LastReport.BytesAlloc = alloc
	return nil
}

// finishReport snapshots the observer and fills the derived block
// activity fraction (the observer itself does not know N).
func (sim *Simulation) finishReport(step int, wall time.Duration) StepReport {
	r := sim.ob.Snapshot(step, wall)
	if r.Substeps > 0 && sim.Sys.N() > 0 {
		r.ActiveFrac = float64(r.ActiveI) / (float64(sim.Sys.N()) * float64(r.Substeps))
	}
	return r
}

// Step advances one step — a single leapfrog kick-drift-kick at a fixed
// DT, or one full block of substeps (simulation time +=
// DTMin·2^(Blocks-1)) for block timesteps — and
// snapshots the step's telemetry into LastReport, including the bytes
// of heap allocated during the step (near zero in steady state: the
// tree builder, walk workers and engines all run on reused arenas). A
// first Step without a prior Prime folds the priming force call into
// its report.
func (sim *Simulation) Step() error {
	sim.ob.Reset()
	a0 := obs.HeapAllocBytes()
	t0 := time.Now()
	if err := sim.bl.Step(sim.Sys); err != nil {
		return err
	}
	wall := time.Since(t0)
	alloc := int64(obs.HeapAllocBytes() - a0)
	sim.time += sim.cfg.DT
	sim.nsteps++
	sim.LastReport = sim.finishReport(sim.nsteps, wall)
	sim.LastReport.BytesAlloc = alloc
	return nil
}

// Run advances n steps.
func (sim *Simulation) Run(n int) error {
	for k := 0; k < n; k++ {
		if err := sim.Step(); err != nil {
			return fmt.Errorf("grape5: step %d: %w", sim.nsteps, err)
		}
	}
	return nil
}

// Time returns the elapsed simulation time.
func (sim *Simulation) Time() float64 { return sim.time }

// Config returns the simulation's effective configuration (with resume
// merging and defaulting applied) — the values a checkpoint records.
func (sim *Simulation) Config() Config { return sim.cfg }

// Steps returns the number of completed steps.
func (sim *Simulation) Steps() int { return sim.nsteps }

// RungOccupancy returns the per-rung particle counts of the block
// scheduler (index k = rung k, dt = DTMin·2^k), or nil for fixed-dt
// simulations. Valid after priming.
func (sim *Simulation) RungOccupancy() []int64 {
	if sim.cfg.Blocks == 0 {
		return nil
	}
	return sim.bl.Occupancy()
}

// Energy returns the current energy using the engine-filled potentials
// (valid after at least one force evaluation).
func (sim *Simulation) Energy() analysis.EnergyReport {
	return analysis.EnergyFromPotentials(sim.Sys)
}

// Observer returns the simulation's telemetry collector. It is reset
// at every step boundary; use LastReport for completed-step telemetry.
func (sim *Simulation) Observer() *obs.Observer { return sim.ob }

// HardwareCounters returns the emulated GRAPE-5 activity counters,
// summed across shards, or a zero value for host and PM simulations.
// Totals are whole-run: a resumed simulation reports the checkpointed
// base plus this process's activity.
func (sim *Simulation) HardwareCounters() g5.Counters {
	live := g5.Counters{}
	if sim.cluster != nil {
		live = sim.cluster.Counters()
	}
	return sim.baseCounters.Add(live)
}

// Cluster returns the GRAPE offload engine — K = max(Config.Shards, 1)
// guarded board systems — or nil for host and PM simulations.
func (sim *Simulation) Cluster() *g5.Cluster { return sim.cluster }

// Recovery returns the guard's fault-handling counters, summed across
// shards, or a zero value for host and PM simulations. Totals are
// whole-run (checkpointed base plus this process); HostOnly reflects
// this process's hardware.
func (sim *Simulation) Recovery() g5.Recovery {
	live := g5.Recovery{}
	if sim.cluster != nil {
		live = sim.cluster.Recovery()
	}
	return sim.baseRecovery.Add(live)
}

// Health snapshots the simulation's hardware serving state: shard and
// board inventory with guard exclusions and recovery counters (see
// g5.Health). Host and PM simulations report a zero inventory that is
// never degraded. Call it between steps — it must not race with Step.
func (sim *Simulation) Health() g5.Health {
	if sim.cluster == nil {
		return g5.Health{}
	}
	return sim.cluster.Health()
}

// FaultStats returns the injected-fault activity counters, or a zero
// value without fault injection. Totals are whole-run across restarts.
func (sim *Simulation) FaultStats() g5.FaultStats {
	live := g5.FaultStats{}
	if sim.cluster != nil {
		live = sim.cluster.FaultStats()
	}
	return sim.baseFaults.Add(live)
}

// Close releases engine resources (the GRAPE shard workers). It is a
// no-op for host and PM simulations, and safe to call more than once.
func (sim *Simulation) Close() error {
	if sim.cluster != nil {
		return sim.cluster.Close()
	}
	return nil
}
