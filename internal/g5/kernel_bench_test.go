package g5

import (
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/vec"
)

// The kernel benchmarks call System.Compute directly, so they measure
// raw emulator throughput: no guard probe, no staging copy, no worker
// hand-off. Compare with BenchmarkHostKernel in the root package.

// kernelNi×kernelNj is a treecode group against its interaction list,
// below grain, so BenchmarkG5Kernel measures the serial kernel.
// batchNi×batchNj is above grain: the size at which the functional
// pass fans out (BenchmarkG5KernelBatch).
const (
	kernelNi, kernelNj = 96, 2000
	batchNi, batchNj   = 2000, 8000
)

// kernelBatch builds a benchmark batch: ni field points and nj unit
// masses uniform in [-50, 50].
func kernelBatch(ni, nj int) (ipos, jpos []vec.V3, jm []float64) {
	r := rng.New(9)
	ipos = make([]vec.V3, ni)
	for i := range ipos {
		ipos[i] = vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
	}
	jpos = make([]vec.V3, nj)
	jm = make([]float64, nj)
	for j := range jpos {
		jpos[j] = vec.V3{X: r.Uniform(-50, 50), Y: r.Uniform(-50, 50), Z: r.Uniform(-50, 50)}
		jm[j] = 1
	}
	return ipos, jpos, jm
}

// benchKernel runs the kernelNi×kernelNj batch through one System
// built from cfg and returns it for counter readout.
func benchKernel(b *testing.B, cfg Config, eps float64) *System {
	return benchBatch(b, cfg, eps, kernelNi, kernelNj, 0)
}

// benchBatch runs an ni×nj batch through one System built from cfg,
// with the functional pass split width ways (0: the default width).
func benchBatch(b *testing.B, cfg Config, eps float64, ni, nj, width int) *System {
	ipos, jpos, jm := kernelBatch(ni, nj)
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
	acc := make([]vec.V3, ni)
	pot := make([]float64, ni)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.compute(ipos, jpos, jm, acc, pot, true, width); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ni*nj*b.N)/b.Elapsed().Seconds(), "interactions/s")
	return sys
}

// BenchmarkG5Kernel measures the emulated GRAPE-5 pipeline rate (the
// reduced-precision arithmetic is the cost of functional fidelity).
func BenchmarkG5Kernel(b *testing.B) {
	sys := benchKernel(b, DefaultConfig(), 0.01)
	b.ReportMetric(sys.Counters().HWSeconds(), "modelled-hw-s")
}

// BenchmarkG5KernelBatch measures the functional pass's fan-out on a
// batch above grain: /serial evaluates it on one goroutine, /split on
// GOMAXPROCS of them. make bench-host gates split against serial with
// benchdiff.
func BenchmarkG5KernelBatch(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchBatch(b, DefaultConfig(), 0.01, batchNi, batchNj, 1) })
	b.Run("split", func(b *testing.B) {
		benchBatch(b, DefaultConfig(), 0.01, batchNi, batchNj, runtime.GOMAXPROCS(0))
	})
}

// BenchmarkAblationPipelinePrecision is the precision ablation: a
// full-precision pipeline configuration against the GRAPE-5
// reduced-precision default of BenchmarkG5Kernel.
func BenchmarkAblationPipelinePrecision(b *testing.B) {
	cfg := DefaultConfig()
	cfg.PosBits, cfg.MassBits, cfg.R2Bits, cfg.PipeBits = 52, 52, 52, 52
	benchKernel(b, cfg, 0)
}
