package g5

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/vec"
)

// TestJMemChunkingPreservesForces: forcing multi-pass j processing
// (tiny particle memory) must not change the computed forces, only the
// pass accounting.
func TestJMemChunkingPreservesForces(t *testing.T) {
	big := DefaultConfig()
	small := DefaultConfig()
	small.JMemPerBoard = 16 // 32 total; nj below is 100 -> 4 passes

	r := rng.New(77)
	ipos := make([]vec.V3, 10)
	jpos := make([]vec.V3, 100)
	jm := make([]float64, 100)
	for i := range ipos {
		ipos[i] = vec.V3{X: r.Uniform(-40, 40), Y: r.Uniform(-40, 40), Z: r.Uniform(-40, 40)}
	}
	for j := range jpos {
		jpos[j] = vec.V3{X: r.Uniform(-40, 40), Y: r.Uniform(-40, 40), Z: r.Uniform(-40, 40)}
		jm[j] = 1 + r.Float64()
	}

	run := func(cfg Config) ([]vec.V3, Counters) {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SetScale(-100, 100); err != nil {
			t.Fatal(err)
		}
		acc := make([]vec.V3, len(ipos))
		pot := make([]float64, len(ipos))
		if err := sys.Compute(ipos, jpos, jm, acc, pot); err != nil {
			t.Fatal(err)
		}
		return acc, sys.Counters()
	}
	accBig, cBig := run(big)
	accSmall, cSmall := run(small)
	for i := range accBig {
		if accBig[i] != accSmall[i] {
			t.Fatalf("chunked forces differ at %d: %v vs %v", i, accBig[i], accSmall[i])
		}
	}
	if cBig.JPasses != 1 {
		t.Errorf("big memory passes = %d", cBig.JPasses)
	}
	if cSmall.JPasses != 4 {
		t.Errorf("small memory passes = %d, want 4", cSmall.JPasses)
	}
	// Pipeline time is pass-count invariant (the same j cycles stream
	// either way); it must never come out cheaper.
	if cSmall.PipeSeconds < cBig.PipeSeconds {
		t.Error("multi-pass processing came out faster than single-pass")
	}
}

// TestEnginePanicsOnHardwareFault: a strict-range system fed an
// out-of-range position must surface as a panic through the guarded
// engine (driver-bug semantics), not silent corruption or a retry — and the panic value
// must be the typed *HardwareError so recovery code can distinguish
// driver bugs from injected faults without string matching.
func TestEnginePanicsOnHardwareFault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StrictRange = true
	sys, _ := NewSystem(cfg)
	if err := sys.SetScale(-1, 1); err != nil {
		t.Fatal(err)
	}
	e := NewGuardedEngine(sys, 1, fastPolicy())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on hardware fault")
		}
		hw, ok := r.(*HardwareError)
		if !ok {
			t.Fatalf("panic value %T, want *HardwareError", r)
		}
		if hw.Transient {
			t.Errorf("driver bug marked transient: %v", hw)
		}
	}()
	req := core.Request{
		IPos: []vec.V3{{X: 99}},
		Acc:  make([]vec.V3, 1),
		Pot:  make([]float64, 1),
	}
	req.J.Append(0, 0, 0, 1)
	e.Accumulate(&req)
}

// TestMorePipesFasterModel: doubling the board count must halve the
// pipeline time for a big batch (timing-model sanity).
func TestMorePipesFasterModel(t *testing.T) {
	one := DefaultConfig()
	one.Boards = 1
	two := DefaultConfig()

	t1 := modelTime(t, one, 960, 10000)
	t2 := modelTime(t, two, 960, 10000)
	ratio := t1 / t2
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("1-board/2-board pipe time ratio = %v, want ~2", ratio)
	}
}

func modelTime(t *testing.T, cfg Config, ni, nj int) float64 {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetScale(-1, 1); err != nil {
		t.Fatal(err)
	}
	sys.ChargeOnly(ni, nj)
	return sys.Counters().PipeSeconds
}

// TestPaddingWaste: an i-batch of 1 occupies a full virtual-pipeline
// group — the hardware inefficiency that favours large n_g groups.
func TestPaddingWaste(t *testing.T) {
	cfg := DefaultConfig()
	t1 := modelTime(t, cfg, 1, 10000)
	t96 := modelTime(t, cfg, 96, 10000)
	if t1 != t96 {
		t.Errorf("1 i-particle (%v s) should cost the same pipe time as 96 (%v s)", t1, t96)
	}
	t97 := modelTime(t, cfg, 97, 10000)
	if t97 <= t96 {
		t.Error("97 i-particles must start a second pass")
	}
}

// TestChargeOnlyIgnoresEmpty covers the guard.
func TestChargeOnlyIgnoresEmpty(t *testing.T) {
	sys, _ := NewSystem(DefaultConfig())
	sys.ChargeOnly(0, 100)
	sys.ChargeOnly(100, 0)
	sys.ChargeOnly(-1, -1)
	if c := sys.Counters(); c.Runs != 0 {
		t.Errorf("empty charges recorded: %+v", c)
	}
}
