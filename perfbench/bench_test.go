package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	grape5 "repro"
)

func TestUnionLength(t *testing.T) {
	cases := []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"empty", nil, 0},
		{"disjoint", []interval{{0, 10}, {20, 25}}, 15},
		{"overlapping", []interval{{0, 10}, {5, 15}}, 15},
		{"nested", []interval{{0, 100}, {10, 20}, {30, 40}}, 100},
		{"touching", []interval{{0, 10}, {10, 20}}, 20},
		{"unsorted chain", []interval{{30, 40}, {0, 12}, {10, 32}}, 40},
		{"empty intervals ignored", []interval{{5, 5}, {9, 3}, {0, 1}}, 1},
	}
	for _, c := range cases {
		if got := unionLength(c.ivs); got != c.want {
			t.Errorf("%s: unionLength = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{110, 150}}, 60},
		{"overlapping children count once", []interval{{110, 150}, {140, 160}}, 50},
		{"children clipped to the parent", []interval{{50, 120}, {190, 300}}, 70},
		{"child outside the parent", []interval{{0, 50}}, 100},
		{"full cover", []interval{{100, 200}, {120, 130}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the rule must not rely on order
	}
	return xs
}

func TestTailQuantile(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want bool
	}{
		{"1000 samples", seq(1000), true},
		{"100 samples", seq(100), true},
		{"92 samples: 10 beyond p90", seq(92), true},
		{"91 samples: 9 beyond p90", seq(91), false},
		{"ties: none strictly beyond", make([]float64, 500), false},
		{"empty", nil, false},
	}
	for _, c := range cases {
		v, ok := tailQuantile(c.xs, 0.9)
		if ok != c.want {
			t.Errorf("%s: p90 = %v ok=%v, want ok=%v", c.name, v, ok, c.want)
		}
		if v != quantile(c.xs, 0.9) {
			t.Errorf("%s: p90 = %v, want %v", c.name, v, quantile(c.xs, 0.9))
		}
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := quantile([]float64{5, 1, 4, 2, 3}, 0.75); got != 4 {
		t.Errorf("quantile 0.75 = %v", got)
	}
	if got := quantile([]float64{0, 10}, 0.25); got != 2.5 {
		t.Errorf("quantile 0.25 = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}

func TestMetricNameCharset(t *testing.T) {
	good := []string{"setup_s", "g5.busy_s", "serve.job_latency_s.p50", "0x", "a-b.c_d",
		"a123456789012345678901234567890123456789012345678901234567890123"}
	bad := []string{"", ".lead", "_lead", "-lead", "has space", "slash/ed", "ünïcode",
		"a1234567890123456789012345678901234567890123456789012345678901234"}
	for _, n := range good {
		if !validMetricName(n) {
			t.Errorf("validMetricName(%q) = false, want true", n)
		}
	}
	for _, n := range bad {
		if validMetricName(n) {
			t.Errorf("validMetricName(%q) = true, want false", n)
		}
	}
	seen := map[string]bool{}
	for _, table := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range table {
			if !validMetricName(m.name) {
				t.Errorf("metric %q has an invalid name", m.name)
			}
			if seen[m.name] {
				t.Errorf("metric %q is listed twice", m.name)
			}
			seen[m.name] = true
		}
	}
	for _, w := range workloads {
		if !validMetricName(w.name) {
			t.Errorf("workload %q has an invalid name", w.name)
		}
	}
}

func TestServedStepWall(t *testing.T) {
	job := func(kind int, latency float64) jobTiming {
		return jobTiming{kind: kind, latency: latency, steps: 10}
	}
	// Per-step medians 0.01, 0.04 and 0.16 s: geometric mean 0.04 s.
	jobs := []jobTiming{
		job(0, 0.1), job(0, 0.1), job(0, 5), // one slow host job does not move the median
		job(1, 0.3), job(1, 0.4), job(1, 0.5),
		job(2, 1.6),
	}
	if got := servedStepWall(jobs); math.Abs(got-0.04) > 1e-15 {
		t.Errorf("servedStepWall = %v, want 0.04", got)
	}
	// Every kind moves the figure: doubling the fastest kind's
	// latencies raises it by 2^(1/3).
	for i := range jobs[:3] {
		jobs[i].latency *= 2
	}
	if got, want := servedStepWall(jobs), 0.04*math.Cbrt(2); math.Abs(got-want) > 1e-15 {
		t.Errorf("servedStepWall after doubling kind 0 = %v, want %v", got, want)
	}
	if got := servedStepWall(jobs[:6]); got != 0 {
		t.Errorf("servedStepWall with a kind missing = %v, want 0", got)
	}
}

func TestMaxOverMean(t *testing.T) {
	if got := maxOverMean([]int64{30, 10}); got != 1.5 {
		t.Errorf("maxOverMean = %v, want 1.5", got)
	}
	if got := maxOverMean(nil); got != 0 {
		t.Errorf("maxOverMean(nil) = %v, want 0", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's workload and
// metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, pair := range []struct {
		kind string
		json []entry
		prog []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", pair.kind, len(pair.json), len(pair.prog))
			continue
		}
		for i, m := range pair.json {
			if m.Name != pair.prog[i].name || m.Unit != pair.prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					pair.kind, i, m.Name, m.Unit, pair.prog[i].name, pair.prog[i].unit)
			}
		}
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	const workers, each = 8, 200
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < each; i++ {
				id, t0 := tr.open()
				tr.close(id, 0, "x", t0, 1)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	spans := tr.snapshot()
	if len(spans) != workers*each {
		t.Fatalf("%d spans recorded, want %d", len(spans), workers*each)
	}
	for i, s := range spans {
		if s.ID != int64(i+1) || s.End < s.Start {
			t.Fatalf("span %d: %+v", i, s)
		}
	}
}

// TestPipelineMatchesSimulation runs small versions of the step
// workloads through the plain Simulation and the traced pipeline and
// requires bitwise-equal final states and a span for every engine call.
func TestPipelineMatchesSimulation(t *testing.T) {
	sys0 := grape5.Plummer(1024, 1, 1, 1, 7)
	base := grape5.Config{Theta: 0.75, Ncrit: 128, G: 1, Eps: 0.02, DT: 0.005}
	cases := []struct {
		name string
		cfg  func(grape5.Config) grape5.Config
	}{
		{"host blocks", func(c grape5.Config) grape5.Config {
			c.DT, c.Blocks, c.DTMin = 0, 3, 0.00125
			return c
		}},
		{"guarded grape5", func(c grape5.Config) grape5.Config {
			c.Engine, c.Guard = grape5.EngineGRAPE5, true
			return c
		}},
		{"cluster", func(c grape5.Config) grape5.Config {
			c.Engine, c.Shards = grape5.EngineGRAPE5, 2
			return c
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg(base)
			sim, _, err := newSim(sys0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			if err := sim.Run(3); err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			p, err := newPipeline(sys0.Clone(), cfg, tr, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer p.close()
			if err := p.prime(); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 3; k++ {
				if _, err := p.step(); err != nil {
					t.Fatal(err)
				}
			}
			if err := sameState(sim.Sys, p.sys); err != nil {
				t.Fatalf("traced pipeline differs from Simulation: %v", err)
			}
			names := map[string]int{}
			for _, s := range tr.snapshot() {
				names[s.Name]++
			}
			if names["step"] != 3 || names["ckpt.save"] != 3 || names[p.layer+".accumulate"] == 0 {
				t.Fatalf("span counts %v", names)
			}
		})
	}
}
