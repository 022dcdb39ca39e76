package g5

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/vec"
)

// The kernel benchmarks call System.Compute directly, so they measure
// raw emulator throughput: no guard probe, no staging copy, no worker
// hand-off. Compare with BenchmarkHostKernel in the root package.

const kernelNi, kernelNj = 96, 2000

// kernelBatch builds the benchmark batch: kernelNi field points and
// kernelNj unit masses uniform in [-50, 50].
func kernelBatch() (ipos, jpos []vec.V3, jm []float64) {
	r := rng.New(9)
	ipos = make([]vec.V3, kernelNi)
	for i := range ipos {
		ipos[i] = vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
	}
	jpos = make([]vec.V3, kernelNj)
	jm = make([]float64, kernelNj)
	for j := range jpos {
		jpos[j] = vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
		jm[j] = 1
	}
	return ipos, jpos, jm
}

// benchKernel runs the batch through one System built from cfg and
// returns it for counter readout.
func benchKernel(b *testing.B, cfg Config, eps float64) *System {
	ipos, jpos, jm := kernelBatch()
	sys, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.SetScale(-100, 100); err != nil {
		b.Fatal(err)
	}
	if err := sys.SetEps(eps); err != nil {
		b.Fatal(err)
	}
	acc := make([]vec.V3, kernelNi)
	pot := make([]float64, kernelNi)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Compute(ipos, jpos, jm, acc, pot); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(kernelNi*kernelNj*b.N)/b.Elapsed().Seconds(), "interactions/s")
	return sys
}

// BenchmarkG5Kernel measures the emulated GRAPE-5 pipeline rate (the
// reduced-precision arithmetic is the cost of functional fidelity).
func BenchmarkG5Kernel(b *testing.B) {
	sys := benchKernel(b, DefaultConfig(), 0.01)
	b.ReportMetric(sys.Counters().HWSeconds(), "modelled-hw-s")
}

// BenchmarkAblationPipelinePrecision is the precision ablation: a
// full-precision pipeline configuration against the GRAPE-5
// reduced-precision default of BenchmarkG5Kernel.
func BenchmarkAblationPipelinePrecision(b *testing.B) {
	cfg := DefaultConfig()
	cfg.PosBits, cfg.MassBits, cfg.R2Bits, cfg.PipeBits = 52, 52, 52, 52
	benchKernel(b, cfg, 0)
}
