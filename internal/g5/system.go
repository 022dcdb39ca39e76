package g5

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/vec"
)

// Counters accumulate the hardware activity of a System. All times are
// simulated hardware seconds, not host wall-clock.
type Counters struct {
	// Interactions is the number of pairwise interactions streamed
	// through the pipelines (including padding-free accounting: only
	// real i×j pairs are counted).
	Interactions int64
	// PipeSeconds is the simulated time the pipelines were busy.
	PipeSeconds float64
	// BusSeconds is the simulated host-interface transfer time.
	BusSeconds float64
	// BytesTransferred is the total traffic over the host interface.
	BytesTransferred int64
	// Runs is the number of Compute calls (hardware activations).
	Runs int64
	// JPasses counts j-memory loads (greater than Runs when a j-set
	// exceeds the particle memory and must be processed in passes).
	JPasses int64
	// RangeClamps counts positions that fell outside the SetScale range
	// and were clamped.
	RangeClamps int64
}

// HWSeconds returns the total simulated hardware time.
func (c Counters) HWSeconds() float64 { return c.PipeSeconds + c.BusSeconds }

// Flops returns the accumulated operation count under the
// ops-per-interaction convention (38 for the paper's accounting).
func (c Counters) Flops(opsPerInteraction int) float64 {
	return float64(c.Interactions) * float64(opsPerInteraction)
}

// System is an emulated GRAPE-5 installation. It is NOT safe for
// concurrent use — it models one physical device on one bus; drive it
// through a GuardedEngine or a Cluster for concurrent callers.
type System struct {
	cfg Config

	// scale state (g5_set_range in the real library)
	haveScale bool
	grid      FixedGrid
	eps       float64
	eps2      float64

	// excluded marks boards the host has taken out of service;
	// nActive is the count still serving (board exclusion is the
	// routine repair operation of the GRAPE cluster papers).
	excluded []bool
	nActive  int

	fault *faultInjector // nil without a fault model

	obs *obs.Observer // nil without telemetry
	cnt tally

	// compute scratch, reused across calls (a System is single-caller
	// by contract): quantized i/j positions and rounded masses. With
	// these, a steady-state Compute allocates nothing.
	iqScratch, jqScratch []vec.V3
	mqScratch            []float64
}

// NewSystem builds an emulated system. The configuration is validated.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, excluded: make([]bool, cfg.Boards), nActive: cfg.Boards}
	if cfg.Fault != nil && cfg.Fault.enabled() {
		s.fault = newFaultInjector(*cfg.Fault, cfg)
	}
	return s, nil
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// SetObserver attaches a telemetry observer: every charge to the
// timing model is also recorded as simulated-hardware phase spans
// (j/i-particle transfer, pipeline streaming, force readback) plus
// flop and byte counters. A nil observer detaches.
func (s *System) SetObserver(o *obs.Observer) { s.obs = o }

// tally is the exact integer form of Counters. Every term the timing
// model charges is a whole number of pipeline cycles, bus bytes or
// calls, so the totals do not depend on the order concurrent callers
// charge them in; Counters derives the seconds once, on read. (Float
// seconds summed per call would make the last bit of the totals, and so
// the checkpoint bytes, depend on walk-worker scheduling.)
type tally struct {
	interactions int64
	pipeCycles   int64 // board-clock cycles the pipelines streamed
	bytes        int64 // host-interface traffic
	runs         int64 // compute calls, each paying BusLatencyS once
	jPasses      int64
	clamps       int64
}

func (t *tally) add(o tally) {
	t.interactions += o.interactions
	t.pipeCycles += o.pipeCycles
	t.bytes += o.bytes
	t.runs += o.runs
	t.jPasses += o.jPasses
	t.clamps += o.clamps
}

// counters converts the tally to simulated seconds under cfg's clock
// and bus parameters.
func (t tally) counters(cfg Config) Counters {
	return Counters{
		Interactions:     t.interactions,
		PipeSeconds:      float64(t.pipeCycles) / cfg.BoardClockHz,
		BusSeconds:       float64(t.bytes)/cfg.BusBandwidth + float64(t.runs)*cfg.BusLatencyS,
		BytesTransferred: t.bytes,
		Runs:             t.runs,
		JPasses:          t.jPasses,
		RangeClamps:      t.clamps,
	}
}

// Counters returns a snapshot of the activity counters.
func (s *System) Counters() Counters { return s.cnt.counters(s.cfg) }

// ResetCounters zeroes the activity counters AND the observer-side
// accumulation the system feeds: the simulated hardware phases
// (j/i-particle transfer, pipeline, readback) and the flop/byte
// counters are written only by this System, so resetting one view but
// not the other would let an observer snapshot disagree with
// Counters() — the inconsistency the obs regression test pins down.
// Phases and counters owned by other components (walk, guard,
// recoveries) are left untouched.
func (s *System) ResetCounters() {
	s.cnt = tally{}
	s.obs.ResetPhase(obs.PhaseJTransfer)
	s.obs.ResetPhase(obs.PhaseITransfer)
	s.obs.ResetPhase(obs.PhasePipeline)
	s.obs.ResetPhase(obs.PhaseReadback)
	s.obs.ResetCounter(obs.CntFlops)
	s.obs.ResetCounter(obs.CntBytes)
}

// SetScale defines the coordinate range mapped onto the pipeline's
// fixed-point format, like g5_set_range. All positions of subsequent
// Compute calls must lie inside [min, max) in every coordinate (or are
// clamped, see Config.StrictRange).
func (s *System) SetScale(min, max float64) error {
	if !(max > min) || math.IsNaN(min) || math.IsInf(max-min, 0) {
		return fmt.Errorf("g5: invalid scale range [%v, %v)", min, max)
	}
	s.grid = NewFixedGrid(min, max, s.cfg.PosBits)
	s.haveScale = true
	return nil
}

// SetEps sets the Plummer softening length used by the pipelines
// (GRAPE-5 applies one global softening per run). Like SetScale, it
// rejects values the hardware register cannot mean: NaN, negative and
// infinite softening all fail, leaving the previous value in place.
func (s *System) SetEps(eps float64) error {
	if math.IsNaN(eps) || eps < 0 || math.IsInf(eps, 0) {
		return fmt.Errorf("g5: invalid softening %v", eps)
	}
	s.eps = eps
	s.eps2 = eps * eps
	return nil
}

// Eps returns the current softening length.
func (s *System) Eps() float64 { return s.eps }

// ScaleRange returns the active fixed-point coordinate window set by
// SetScale, with ok=false before the first SetScale.
func (s *System) ScaleRange() (min, max float64, ok bool) {
	if !s.haveScale {
		return 0, 0, false
	}
	return s.grid.Min, s.grid.Max, true
}

// FaultStats returns the injected-fault activity counters (all zero
// without a fault model).
func (s *System) FaultStats() FaultStats {
	if s.fault == nil {
		return FaultStats{}
	}
	return s.fault.stats
}

// SetBoardExcluded marks board b (0-based) out of or back into
// service. Remaining work is re-planned on the surviving boards: the
// timing model streams j through fewer pipelines and the particle
// memory shrinks accordingly, so throughput degrades the way
// TestMorePipesFasterModel says it must.
func (s *System) SetBoardExcluded(b int, exclude bool) error {
	if b < 0 || b >= s.cfg.Boards {
		return fmt.Errorf("g5: board %d outside [0, %d)", b, s.cfg.Boards)
	}
	if s.excluded[b] != exclude {
		s.excluded[b] = exclude
		if exclude {
			s.nActive--
		} else {
			s.nActive++
		}
	}
	return nil
}

// BoardExcluded reports whether board b is out of service.
func (s *System) BoardExcluded(b int) bool {
	return b >= 0 && b < s.cfg.Boards && s.excluded[b]
}

// ActiveBoards returns the number of boards still in service.
func (s *System) ActiveBoards() int { return s.nActive }

// activeBoardList returns the 0-based indices of in-service boards.
func (s *System) activeBoardList() []int {
	out := make([]int, 0, s.nActive)
	for b, ex := range s.excluded {
		if !ex {
			out = append(out, b)
		}
	}
	return out
}

// Compute runs the hardware on one batch: the accelerations and
// potentials (G=1 units) exerted by sources (jpos, jmass) on field
// points ipos are ADDED into acc and pot. It models the full offload:
// j upload (chunked by particle-memory capacity), i upload, pipeline
// passes, force readback — charging simulated time to the counters —
// and evaluates the forces with the pipeline's reduced precision.
func (s *System) Compute(ipos, jpos []vec.V3, jmass []float64, acc []vec.V3, pot []float64) error {
	return s.compute(ipos, jpos, jmass, acc, pot, true)
}

// compute is Compute with control over j-upload accounting: the Driver
// charges the j transfer once at load time (persistent particle
// memory), not per force call.
func (s *System) compute(ipos, jpos []vec.V3, jmass []float64, acc []vec.V3, pot []float64, chargeJ bool) error {
	if !s.haveScale {
		return fmt.Errorf("g5: Compute before SetScale")
	}
	if len(jpos) != len(jmass) {
		return fmt.Errorf("g5: jpos/jmass length mismatch: %d vs %d", len(jpos), len(jmass))
	}
	if len(acc) != len(ipos) || len(pot) != len(ipos) {
		return fmt.Errorf("g5: output length mismatch")
	}
	ni, nj := len(ipos), len(jpos)
	if ni == 0 || nj == 0 {
		return nil
	}
	if s.nActive == 0 {
		return &HardwareError{Op: "compute",
			Err: fmt.Errorf("all %d boards excluded from service", s.cfg.Boards)}
	}

	// --- Fault injection --------------------------------------------
	plan := faultPlan{flipJ: -1}
	if s.fault != nil {
		plan = s.fault.plan(nj, s.activeBoardList())
		if plan.err != nil {
			return plan.err
		}
	}

	// --- Functional model -------------------------------------------
	iq, err := s.quantizeInto(s.iqScratch, ipos)
	if err != nil {
		return err
	}
	s.iqScratch = iq
	jq, err := s.quantizeInto(s.jqScratch, jpos)
	if err != nil {
		return err
	}
	s.jqScratch = jq
	if cap(s.mqScratch) < nj {
		s.mqScratch = make([]float64, nj)
	}
	mq := s.mqScratch[:nj]
	for j, m := range jmass {
		mq[j] = RoundMantissa(m, s.cfg.MassBits)
	}
	if plan.flipJ >= 0 {
		// A corrupted word read back from the particle memory.
		if plan.flipMass {
			mq[plan.flipJ] = flipMantissaBit(mq[plan.flipJ], plan.flipBit)
		} else {
			p := &jq[plan.flipJ]
			switch plan.flipAxis {
			case 0:
				p.X = flipMantissaBit(p.X, plan.flipBit)
			case 1:
				p.Y = flipMantissaBit(p.Y, plan.flipBit)
			default:
				p.Z = flipMantissaBit(p.Z, plan.flipBit)
			}
		}
	}
	// A stuck virtual pipeline zeroes the owning board's partial force
	// for every i-slot it serves; the host sums per-board partials, so
	// the affected i lose that board's 1/nActive share of j.
	var stuckFactor []float64
	if len(plan.stuck) > 0 {
		vps := s.cfg.VirtualPipesPerBoard()
		stuckFactor = make([]float64, vps)
		for i := range stuckFactor {
			stuckFactor[i] = 1
		}
		share := 1 / float64(s.nActive)
		for _, sp := range plan.stuck {
			stuckFactor[sp.slot] *= 1 - share
		}
	}
	pb := s.cfg.PipeBits
	r2b := s.cfg.R2Bits
	for i := range iq {
		pi := iq[i]
		var ax, ay, az, pp float64
		for j := range jq {
			dx := jq[j].X - pi.X
			dy := jq[j].Y - pi.Y
			dz := jq[j].Z - pi.Z
			r2 := dx*dx + dy*dy + dz*dz
			if r2 == 0 {
				continue // hardware emits zero for coincident points
			}
			r2 = RoundMantissa(r2+s.eps2, r2b)
			//lint:ignore hostk emulated pipeline arithmetic: every product is mantissa-rounded, so the float64 tile kernel cannot express it
			inv := 1 / math.Sqrt(r2)
			m := mq[j]
			fpot := RoundMantissa(m*inv, pb)
			ff := RoundMantissa(m*inv/r2, pb)
			ax += RoundMantissa(ff*dx, pb)
			ay += RoundMantissa(ff*dy, pb)
			az += RoundMantissa(ff*dz, pb)
			pp -= fpot
		}
		if stuckFactor != nil {
			f := stuckFactor[i%len(stuckFactor)]
			ax, ay, az, pp = ax*f, ay*f, az*f, pp*f
		}
		acc[i] = acc[i].Add(vec.V3{X: ax, Y: ay, Z: az})
		pot[i] += pp
	}

	// --- Timing model ------------------------------------------------
	s.chargeOpt(ni, nj, chargeJ)
	return nil
}

// quantizeInto maps positions through the fixed-point grid, writing
// into dst when its capacity suffices (dst is the reused compute
// scratch; callers retain the returned slice for the next call).
func (s *System) quantizeInto(dst []vec.V3, pos []vec.V3) ([]vec.V3, error) {
	if cap(dst) < len(pos) {
		dst = make([]vec.V3, len(pos))
	}
	out := dst[:len(pos)]
	for i, p := range pos {
		qx, okx := s.grid.Quantize(p.X)
		qy, oky := s.grid.Quantize(p.Y)
		qz, okz := s.grid.Quantize(p.Z)
		if !okx || !oky || !okz {
			if s.cfg.StrictRange {
				return nil, fmt.Errorf("g5: position %v outside scale range [%v, %v)",
					p, s.grid.Min, s.grid.Max)
			}
			s.cnt.clamps++
		}
		out[i] = vec.V3{X: qx, Y: qy, Z: qz}
	}
	return out, nil
}

// ChargeOnly accounts the simulated hardware cost of a Compute call
// with ni field points and nj sources WITHOUT evaluating any forces.
// The performance harness uses it to replay a traversal schedule
// through the timing model at full problem scale, where evaluating the
// arithmetic in emulation would be pointless work.
func (s *System) ChargeOnly(ni, nj int) {
	if ni <= 0 || nj <= 0 || s.nActive == 0 {
		return
	}
	s.charge(ni, nj)
}

// charge adds the simulated cost of one Compute(ni, nj) call to the
// counters.
func (s *System) charge(ni, nj int) { s.chargeOpt(ni, nj, true) }

// chargeJBytes accounts a standalone j-particle upload (Driver.SetXMJ).
func (s *System) chargeJBytes(nj int) {
	bytes := int64(nj) * int64(s.cfg.BytesPerJ)
	s.cnt.bytes += bytes
	s.obs.AddSeconds(obs.PhaseJTransfer, float64(bytes)/s.cfg.BusBandwidth)
	s.obs.Add(obs.CntBytes, bytes)
}

func (s *System) chargeOpt(ni, nj int, chargeJ bool) {
	c := &s.cnt
	c.runs++
	c.interactions += int64(ni) * int64(nj)

	vp := s.cfg.VirtualPipesPerBoard()
	boards := s.nActive // excluded boards carry no load
	jmem := s.cfg.JMemPerBoard * boards

	// j is processed in passes of at most the total particle memory.
	passes := (nj + jmem - 1) / jmem
	c.jPasses += int64(passes)
	var cycles int64
	remaining := nj
	for p := 0; p < passes; p++ {
		chunk := remaining
		if chunk > jmem {
			chunk = jmem
		}
		remaining -= chunk
		// Each board streams its share of the chunk once per i-group
		// of vp particles, at the board clock.
		perBoard := (chunk + boards - 1) / boards
		iGroups := (ni + vp - 1) / vp
		cycles += int64(iGroups) * int64(perBoard)
	}
	c.pipeCycles += cycles
	pipeSec := float64(cycles) / s.cfg.BoardClockHz

	iBytes := int64(ni) * int64(s.cfg.BytesPerI)
	fBytes := int64(ni) * int64(s.cfg.BytesPerForce) * int64(boards)
	var jBytes int64
	if chargeJ {
		jBytes = int64(nj) * int64(s.cfg.BytesPerJ)
	}
	bytes := iBytes + fBytes + jBytes
	c.bytes += bytes

	// Telemetry: the paper's t_grape is the pipeline span; t_comm
	// splits into the j upload, the i upload (which carries the fixed
	// DMA/driver latency) and the per-board force readback.
	s.obs.AddSeconds(obs.PhasePipeline, pipeSec)
	s.obs.AddSeconds(obs.PhaseJTransfer, float64(jBytes)/s.cfg.BusBandwidth)
	s.obs.AddSeconds(obs.PhaseITransfer, float64(iBytes)/s.cfg.BusBandwidth+s.cfg.BusLatencyS)
	s.obs.AddSeconds(obs.PhaseReadback, float64(fBytes)/s.cfg.BusBandwidth)
	s.obs.Add(obs.CntFlops, int64(ni)*int64(nj)*int64(s.cfg.OpsPerInteraction))
	s.obs.Add(obs.CntBytes, bytes)
}
