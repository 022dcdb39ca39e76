// Command perfbench is the repository benchmark: it runs one named
// workload against the public API for a fixed time, checks that the
// outputs are correct and prints the metrics as one JSON line.
//
// With -trace 0 it reports the end-to-end metrics, measured with no
// tracing. With -trace 1 it runs the same workload twice, once as the
// plain program and once rebuilt from the same public constructors with
// a span around every call into a layer, checks that both end in the
// same state bit for bit, and reports the per-layer metrics. README.md
// maps every metric to its layer and to the end-to-end metric it moves.
//
// Usage, from the root of the repository (run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload cosmo-k1 --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// outDir holds trace files; workDir prefixes the per-run scratch
// directories (checkpoint stores, the job server's data). Both are
// relative to the directory the benchmark runs in, which is the root
// of the checkout.
const (
	outDir  = ".bench_build/perfbench"
	workDir = ".bench_build/perfbench-work"
)

// workload is one named set of inputs. run measures it for the given
// time and returns the metrics of the requested kind. README.md gives
// the reason for each.
type workload struct {
	name string
	run  func(c *runCtx) (*result, error)
}

var workloads = []workload{
	{"cosmo-k1", cosmoK1.run},
	{"cosmo-k2", cosmoK2.run},
	{"hernquist-blocks", hernquistBlocks.run},
	{"serve-mix", runServeMix},
}

// runCtx carries one invocation's settings to a workload.
type runCtx struct {
	seed    uint64
	seconds float64
	trace   bool
	work    string // scratch directory, removed when the run ends
	meta    *runMeta
}

// runMeta is recorded with every result.
type runMeta struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	N          int    `json:"n"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a workload's outcome: operations attempted and failed
// (steps, jobs and correctness checks all count) and the metrics.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	spans             []span
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

// check counts one correctness check, reporting a failure on stderr.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// op counts one operation (a step, a job) and its error, if any.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

// set records a metric; its unit comes from the metric table.
func (r *result) set(name string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: metricUnit(name)}
}

func main() {
	correct, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// run parses the flags, runs the workload and prints its result. It
// reports whether every operation and check passed.
func run() (bool, error) {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "workload seed; the inputs are generated from it")
		seconds = flag.Int("seconds", 10, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return false, fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	if *seconds < 1 {
		return false, fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return false, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}

	meta := &runMeta{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	work := fmt.Sprintf("%s-%d", workDir, os.Getpid())
	if err := os.MkdirAll(work, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(work)

	c := &runCtx{seed: *seed, seconds: float64(*seconds), trace: *trace == 1, work: work, meta: meta}
	res, err := w.run(c)
	if err != nil {
		return false, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := res.complete(c.trace); err != nil {
		return false, fmt.Errorf("%s: %w", w.name, err)
	}
	if c.trace {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := writeTrace(path, *meta, res.spans); err != nil {
			return false, err
		}
	}
	metaLine, err := json.Marshal(meta)
	if err != nil {
		return false, err
	}
	fmt.Printf("perfbench meta: %s\n", metaLine)
	for _, name := range sortedKeys(res.metrics) {
		m := res.metrics[name]
		fmt.Printf("perfbench %-28s %.6g %s\n", name, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return res.failed == 0, nil
}

// complete checks that the result holds exactly the metrics of its
// kind, each validly named and finite, and that at least one operation
// was attempted.
func (r *result) complete(trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
	}
	var missing []string
	for _, m := range want {
		if _, ok := r.metrics[m.name]; !ok {
			missing = append(missing, m.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("%d metrics measured, %d expected", len(r.metrics), len(want))
	}
	for name, m := range r.metrics {
		if !validMetricName(name) {
			return fmt.Errorf("metric name %q is outside the charset", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	if r.attempted < 1 {
		return errors.New("no operation attempted")
	}
	return nil
}

// commit returns the VCS revision the binary was built from, or
// "unknown" outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// elapsed returns the seconds since t0.
func elapsed(t0 time.Time) float64 { return time.Since(t0).Seconds() }
