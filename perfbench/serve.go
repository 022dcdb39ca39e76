package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	grape5 "repro"
	"repro/internal/ckpt"
	"repro/internal/serve"
)

// The serve-mix traffic: a closed loop of serveClients clients, one
// tenant each, each with at most one job and one connection open. Each
// job is a Plummer sphere of serveN particles run for serveSteps steps,
// the size the workload was specified at; the engine rotates through
// serveKinds, so a run has three distinct job specs. serveCkptEvery is
// small enough that every job saves two periodic checkpoints (after
// steps 4 and 8) before its final state.
const (
	serveClients   = 2
	serveN         = 1024
	serveSteps     = 10
	serveCkptEvery = 4
	// Each set-up restarts the server over a data directory that holds
	// serveHistoryJobs finished jobs, as a restarted daemon does;
	// setup_s is the median of serveSetupReps restarts.
	serveHistoryJobs = 100
	serveSetupReps   = 50
	// serveHeapJobs is the number of completed jobs heap_peak_bytes
	// covers. The server keeps every finished job's result in memory,
	// so its heap grows with the jobs served; a fixed count makes the
	// figure independent of how many jobs a run completes.
	serveHeapJobs = 50
	// serveTailJobs is the least number of jobs the traced loop
	// attempts, so that at least tailBeyond samples lie beyond p90.
	serveTailJobs = 100
)

var serveKinds = []struct {
	engine string
	boards int
}{{serve.EngineHost, 0}, {serve.EngineGRAPE5, 1}, {serve.EngineGRAPE5, 2}}

// jobKind returns the index in serveKinds of client c's k-th job.
func jobKind(client, k int) int { return (client + k) % len(serveKinds) }

// jobBody returns the request of client c's k-th job.
func jobBody(seed uint64, client, k int) string {
	kind := serveKinds[jobKind(client, k)]
	return fmt.Sprintf(`{"tenant":"client-%d","model":"plummer","n":%d,"steps":%d,"seed":%d,"engine":%q,"boards":%d}`,
		client, serveN, serveSteps, seed+1, kind.engine, kind.boards)
}

// historyBody returns the request of the i-th job of the history a
// set-up restarts over: the smallest job the server accepts.
func historyBody(seed uint64, i int) string {
	return fmt.Sprintf(`{"tenant":"history","model":"plummer","n":16,"steps":1,"seed":%d}`, seed+uint64(i)+1)
}

// specKey identifies a job spec up to its tenant, which does not enter
// the physics.
func specKey(s serve.JobSpec) string {
	s.Tenant = ""
	b, _ := json.Marshal(s)
	return string(b)
}

// reference is a standalone run of one job spec.
type reference struct {
	result    []byte
	energyErr float64
	forceErr  float64 // 0 for host jobs
}

// runReference runs spec the way the server's runner does, outside any
// timed region, and records its result bytes and accuracy.
func runReference(spec serve.JobSpec) (reference, error) {
	cfg := spec.SimConfig()
	sim, err := grape5.NewSimulation(spec.NewSystem(), cfg)
	if err != nil {
		return reference{}, err
	}
	defer sim.Close()
	if err := sim.Prime(); err != nil {
		return reference{}, err
	}
	var ref reference
	if spec.Engine == serve.EngineGRAPE5 {
		ref.forceErr = forceErrRMS(sim.Sys, cfg.G, cfg.Eps)
	}
	e0 := sim.Energy()
	if err := sim.Run(spec.Steps); err != nil {
		return reference{}, err
	}
	ref.energyErr = energyErr(sim.Energy(), e0)
	ref.result, err = ckpt.Marshal(&ckpt.Checkpoint{State: sim.CheckpointState(), Sys: sim.Sys})
	return ref, err
}

// server is a job server on a loopback listener.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startServer builds a job server over dataDir and serves it on a
// loopback port; it returns once /healthz answers.
func startServer(dataDir string) (*server, error) {
	srv, err := serve.NewServer(serve.Options{
		DataDir: dataDir,
		Budget:  serve.Budget{CkptEvery: serveCkptEvery},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Close())
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return nil, errors.Join(fmt.Errorf("/healthz: %w", err), s.stop())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the job server, then closes the listener and waits for
// the serving goroutine.
func (s *server) stop() error {
	err := s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = errors.Join(err, s.hs.Shutdown(ctx))
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// jobTiming is one job as its client saw it. The phases tile the job:
// submit (POST round trip), queue (until the event stream shows the
// job running), run (until it shows the job done) and result (GET of
// the result).
type jobTiming struct {
	latency                  float64 // POST to done
	submit, queue, run, rslt float64
	resultBytes              int
	steps                    int
	kind                     int // index in serveKinds
}

// loadStats accumulates a closed-loop phase's outcome.
type loadStats struct {
	mu       sync.Mutex
	jobs     []jobTiming
	attempts int
	rejected int
	heap     float64
}

// add records a completed job and samples the live heap while the
// first serveHeapJobs jobs complete, collecting garbage before the last
// sample so that it counts live bytes only.
func (l *loadStats) add(j jobTiming) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs = append(l.jobs, j)
	switch n := len(l.jobs); {
	case n < serveHeapJobs:
		l.heap = max(l.heap, liveHeap())
	case n == serveHeapJobs:
		runtime.GC()
		l.heap = max(l.heap, liveHeap())
	}
}

// attempt counts one submission and reports whether the loop has made
// at least n of them.
func (l *loadStats) attempt(n int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempts++
	return l.attempts >= n
}

// runLoad drives the closed loop until the time has run out and at
// least minJobs jobs were submitted. Each client starts its next job
// only when the previous one has finished, and sends every job kind at
// least once; every result is checked against refs.
func runLoad(res *result, resMu *sync.Mutex, s *server, seed uint64, seconds float64, minJobs int, tr *tracer, refs map[string]reference) *loadStats {
	stats := &loadStats{heap: liveHeap()}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{
				Timeout:   60 * time.Second,
				Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			}
			defer client.CloseIdleConnections()
			enough := false
			for k := 0; k < len(serveKinds) || !enough || time.Now().Before(deadline); k++ {
				enough = stats.attempt(minJobs)
				jt, rejected, err := runJob(client, s.url, jobBody(seed, c, k), tr, refs)
				jt.kind = jobKind(c, k)
				resMu.Lock()
				switch {
				case rejected:
					stats.mu.Lock()
					stats.rejected++
					stats.mu.Unlock()
					res.op(fmt.Errorf("client %d job %d: refused with 429", c, k))
				default:
					res.op(err)
				}
				resMu.Unlock()
				if rejected {
					time.Sleep(100 * time.Millisecond)
					continue
				}
				if err == nil {
					stats.add(jt)
				}
			}
		}(c)
	}
	wg.Wait()
	return stats
}

// runJob submits one job, follows its event stream to a terminal state
// and fetches and checks its result.
func runJob(client *http.Client, url, body string, tr *tracer, refs map[string]reference) (jobTiming, bool, error) {
	spec, err := serve.DecodeJobRequest(strings.NewReader(body), serve.Budget{})
	if err != nil {
		return jobTiming{}, false, err
	}
	ref, ok := refs[specKey(spec)]
	if !ok {
		return jobTiming{}, false, fmt.Errorf("no reference for %s", body)
	}
	t0 := time.Now()
	resp, err := client.Post(url+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return jobTiming{}, false, err
	}
	var st serve.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return jobTiming{}, true, nil
	}
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		return jobTiming{}, false, fmt.Errorf("submit: status %d, %v", resp.StatusCode, derr)
	}
	t1 := time.Now()

	t2, t3, state, err := follow(client, url+"/jobs/"+st.ID+"/events")
	if err != nil {
		return jobTiming{}, false, err
	}
	if state != serve.StateDone {
		return jobTiming{}, false, fmt.Errorf("job %s ended %s", st.ID, state)
	}
	resp, err = client.Get(url + "/jobs/" + st.ID + "/result")
	if err != nil {
		return jobTiming{}, false, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return jobTiming{}, false, fmt.Errorf("result of %s: status %d, %v", st.ID, resp.StatusCode, err)
	}
	t4 := time.Now()
	if tr != nil {
		job, _ := tr.open()
		tr.record(job, "serve.submit", t0, t1, 0)
		tr.record(job, "serve.queue", t1, t2, 0)
		tr.record(job, "serve.run", t2, t3, 0)
		tr.record(job, "serve.result", t3, t4, int64(len(data)))
		tr.close(job, 0, "serve.job", int64(t0.Sub(tr.epoch)), 0)
	}
	if !bytes.Equal(data, ref.result) {
		return jobTiming{}, false, fmt.Errorf("result of %s differs from the standalone run of the same spec", st.ID)
	}
	return jobTiming{
		latency: t3.Sub(t0).Seconds(),
		submit:  t1.Sub(t0).Seconds(), queue: t2.Sub(t1).Seconds(),
		run: t3.Sub(t2).Seconds(), rslt: t4.Sub(t3).Seconds(),
		resultBytes: len(data), steps: spec.Steps,
	}, false, nil
}

// follow reads a job's event stream to its end. It returns when the
// stream first showed the job past queued, when it showed a terminal
// state, and that state.
func follow(client *http.Client, url string) (running, end time.Time, state string, err error) {
	resp, err := client.Get(url)
	if err != nil {
		return running, end, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return running, end, "", fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return running, end, "", fmt.Errorf("event: %w", err)
		}
		now := time.Now()
		if running.IsZero() && ev.State != serve.StateQueued {
			running = now
		}
		switch ev.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			if end.IsZero() {
				end, state = now, ev.State
			}
		}
	}
	if err := sc.Err(); err != nil {
		return running, end, "", err
	}
	if end.IsZero() {
		return running, end, "", errors.New("event stream ended before the job did")
	}
	return running, end, state, nil
}

// fillHistory runs serveHistoryJobs of the smallest jobs through s, one
// after another, so that the data directory holds that many finished
// jobs for the set-ups to restart over.
func fillHistory(s *server, seed uint64) error {
	client := &http.Client{Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	for i := 0; i < serveHistoryJobs; i++ {
		resp, err := client.Post(s.url+"/jobs", "application/json", strings.NewReader(historyBody(seed, i)))
		if err != nil {
			return err
		}
		var st serve.JobStatus
		derr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || derr != nil {
			return fmt.Errorf("history job %d: status %d, %v", i, resp.StatusCode, derr)
		}
		_, _, state, err := follow(client, s.url+"/jobs/"+st.ID+"/events")
		if err != nil {
			return err
		}
		if state != serve.StateDone {
			return fmt.Errorf("history job %d ended %s", i, state)
		}
	}
	return nil
}

func runServeMix(c *runCtx) (*result, error) {
	c.meta.N = serveN
	res := newResult()

	// One standalone reference per job kind; client 0's first jobs
	// cover every spec any client sends. Each reference's accuracy is
	// checked, so that a defect in one engine path fails the run.
	refs := make(map[string]reference)
	var forceErrs, energyErrs []float64
	for k := range serveKinds {
		spec, err := serve.DecodeJobRequest(strings.NewReader(jobBody(c.seed, 0, k)), serve.Budget{})
		if err != nil {
			return nil, err
		}
		ref, err := runReference(spec)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		refs[specKey(spec)] = ref
		what := fmt.Sprintf("%s boards=%d", spec.Engine, spec.Boards)
		if spec.Engine == serve.EngineGRAPE5 {
			res.check(ref.forceErr > 0 && ref.forceErr <= 0.02, "%s: force_err_rms %.3g outside (0, 0.02]", what, ref.forceErr)
			forceErrs = append(forceErrs, ref.forceErr)
		}
		res.check(ref.energyErr > 0 && ref.energyErr <= 1e-3, "%s: energy_err %.3g outside (0, 1e-3]", what, ref.energyErr)
		energyErrs = append(energyErrs, ref.energyErr)
	}

	// Each set-up restarts the server over the same data directory,
	// which holds the finished history jobs; the previous server is
	// stopped first, as a restarted daemon's is, and every restart
	// starts from a collected heap. A restart over an empty directory
	// takes a fraction of a millisecond, most of it loopback wake-ups,
	// and its run-to-run spread is too wide to bound.
	dir := filepath.Join(c.work, "serve")
	s, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	if err := fillHistory(s, c.seed); err != nil {
		return nil, errors.Join(err, s.stop())
	}
	var setups []float64
	for r := 0; r < serveSetupReps; r++ {
		if err := s.stop(); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		s, err = startServer(dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, elapsed(t0))
	}
	defer s.stop()

	var resMu sync.Mutex
	runtime.GC()
	if !c.trace {
		stats := runLoad(res, &resMu, s, c.seed, c.seconds, 0, nil, refs)
		if len(stats.jobs) < serveHeapJobs {
			runtime.GC()
			stats.heap = max(stats.heap, liveHeap())
		}
		res.set("setup_s", median(setups))
		res.set("step_wall_s", servedStepWall(stats.jobs))
		res.set("heap_peak_bytes", stats.heap)
	} else {
		plain := runLoad(res, &resMu, s, c.seed, c.seconds/2, 0, nil, refs)
		tr := newTracer()
		t0 := time.Now()
		traced := runLoad(res, &resMu, s, c.seed, c.seconds/2, serveTailJobs, tr, refs)
		loop := elapsed(t0)
		res.spans = tr.snapshot()
		serveMetrics(res, traced, loop, servedStepWall(plain.jobs))
		res.set("accuracy.force_err_rms", median(forceErrs))
		res.set("accuracy.energy_err", median(energyErrs))
	}
	return res, nil
}

// servedStepWall returns the wall-clock per served step, job overhead
// included: for each job kind the median over its jobs of the latency
// divided by the step count, and the geometric mean of those medians,
// so that each kind moves the figure by the same share.
func servedStepWall(jobs []jobTiming) float64 {
	perKind := make([][]float64, len(serveKinds))
	for _, j := range jobs {
		perKind[j.kind] = append(perKind[j.kind], j.latency/float64(j.steps))
	}
	var logSum float64
	for _, xs := range perKind {
		if len(xs) == 0 {
			return 0
		}
		logSum += math.Log(median(xs))
	}
	return math.Exp(logSum / float64(len(perKind)))
}

func serveMetrics(res *result, l *loadStats, loop, plainStep float64) {
	var lat, submit, queue, run, rslt, size []float64
	for _, j := range l.jobs {
		lat = append(lat, j.latency)
		submit = append(submit, j.submit)
		queue = append(queue, j.queue)
		run = append(run, j.run)
		rslt = append(rslt, j.rslt)
		size = append(size, float64(j.resultBytes))
	}
	traced := servedStepWall(l.jobs)
	res.set("trace.step_wall_s", traced)
	res.set("trace.overhead_frac", traced/plainStep-1)
	res.set("serve.jobs", float64(len(l.jobs)))
	res.set("serve.jobs_per_min", float64(len(l.jobs))/loop*60)
	res.set("serve.job_latency_s.p50", median(lat))
	p90, ok := tailQuantile(lat, 0.9)
	res.check(ok, "serve.job_latency_s.p90: fewer than %d of %d jobs beyond it", tailBeyond, len(lat))
	res.set("serve.job_latency_s.p90", p90)
	res.set("serve.submit_s", median(submit))
	res.set("serve.queue_s", median(queue))
	res.set("serve.run_s", median(run))
	res.set("serve.result_s", median(rslt))
	res.set("serve.result_bytes", median(size))
	res.set("serve.rejected", float64(l.rejected))
	zeroLayers(res, "integrate.", "core.", "morton.", "octree.", "g5.", "hostk.", "ckpt.")
}
