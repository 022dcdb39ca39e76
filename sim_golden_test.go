package grape5

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/g5"
)

// modeGoldenPath holds per-step trajectory hashes and final checkpoint
// hashes for every engine × integrator mode the Simulation offers. They
// were recorded while each mode still had its own code path (bare
// engine, guarded engine, cluster; fixed-dt, block leapfrog), so they
// pin that folding the modes onto one offload path and one integrator
// changed no bit of any trajectory or checkpoint.
//
// Regenerate (only for an intentional arithmetic change):
//
//	REGEN_MODE_GOLDENS=1 go test -run TestModeGoldens .
const modeGoldenPath = "testdata/mode_goldens.json"

// v1CheckpointPath is a version-1 (fixed shared dt) checkpoint of the
// "guarded-fixed" mode after modeGoldenCut steps, written by the
// revision that still drove that mode through a bare GuardedEngine and
// the fixed-dt Leapfrog. It is a fixture of the old writer and is never
// regenerated: resuming it must land on the golden trajectory.
const (
	v1CheckpointPath = "testdata/v1_guarded_fixed_step3.ckpt"
	modeGoldenCut    = 3
)

type modeGoldenCase struct {
	Name       string   `json:"name"`
	StepHashes []string `json:"step_hashes"`
	// CkptHash is the SHA-256 of the final checkpoint bytes; empty for
	// modes whose counters are not pinned.
	CkptHash string `json:"ckpt_hash,omitempty"`
}

type modeGolden struct {
	Arch  string           `json:"arch"`
	Cases []modeGoldenCase `json:"cases"`
}

type modeScenario struct {
	name  string
	n     int
	seed  uint64
	steps int
	cfg   Config
	// ckpt selects whether the final checkpoint bytes are pinned too.
	ckpt bool
}

// modeBase is the shared fixed-dt configuration of the mode goldens.
var modeBase = Config{Theta: 0.6, Ncrit: 64, G: 1, Eps: 0.05, DT: 0.005}

// modeBlocks is the shared block-timestep configuration: four rungs and
// a group size small enough that partially-active groups take the
// gather/scatter walk path.
var modeBlocks = Config{Theta: 0.6, Ncrit: 32, G: 1, Eps: 0.05,
	Blocks: 4, DTMin: 0.000625, Eta: 0.1}

func modeScenarios() []modeScenario {
	with := func(base Config, f func(*Config)) Config {
		f(&base)
		return base
	}
	lossCfg := g5.DefaultConfig()
	lossCfg.Fault = &g5.FaultModel{Seed: 3, FailBoard: 2, FailAfterRuns: 20, FailSlot: 7}
	return []modeScenario{
		{name: "host-fixed", n: 256, seed: 9, steps: 6, ckpt: true,
			cfg: with(modeBase, func(c *Config) { c.Engine = EngineHost })},
		// An unguarded run starts counting acceptance checks once every
		// GRAPE run is guarded, so only its trajectory is pinned.
		{name: "unguarded-fixed", n: 256, seed: 9, steps: 6,
			cfg: with(modeBase, func(c *Config) { c.Engine = EngineGRAPE5 })},
		{name: "guarded-fixed", n: 256, seed: 9, steps: 6, ckpt: true,
			cfg: with(modeBase, func(c *Config) { c.Engine = EngineGRAPE5; c.Guard = true })},
		{name: "guarded-board-loss", n: 400, seed: 5, steps: 6,
			cfg: with(modeBase, func(c *Config) {
				c.Engine, c.Guard, c.GRAPE = EngineGRAPE5, true, lossCfg
			})},
		{name: "cluster2-fixed", n: 256, seed: 9, steps: 6, ckpt: true,
			cfg: with(modeBase, func(c *Config) { c.Engine = EngineGRAPE5; c.Guard = true; c.Shards = 2 })},
		{name: "host-blocks", n: 256, seed: 9, steps: 3,
			cfg: with(modeBlocks, func(c *Config) { c.Engine = EngineHost })},
		{name: "guarded-blocks", n: 256, seed: 9, steps: 3, ckpt: true,
			cfg: with(modeBlocks, func(c *Config) { c.Engine = EngineGRAPE5; c.Guard = true })},
		{name: "pm-fixed", n: 512, seed: 9, steps: 6,
			cfg: Config{G: 1, DT: 0.005, Engine: EnginePM, PMGrid: 32}},
	}
}

// stateHash hashes positions then velocities as IEEE-754 bit patterns
// in particle order (the comparison must distinguish -0 from +0).
func stateHash(s *System) string {
	h := sha256.New()
	buf := make([]byte, 8)
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		h.Write(buf)
	}
	for i := range s.Pos {
		p, v := s.Pos[i], s.Vel[i]
		put(p.X)
		put(p.Y)
		put(p.Z)
		put(v.X)
		put(v.Y)
		put(v.Z)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkpointBytes serialises the simulation's full checkpoint.
func checkpointBytes(sim *Simulation) ([]byte, error) {
	return ckpt.Marshal(&ckpt.Checkpoint{State: sim.CheckpointState(), Sys: sim.Sys, Block: sim.blockState()})
}

// stepHashes advances sim by steps, hashing the state after each one.
func stepHashes(t *testing.T, sim *Simulation, steps int) []string {
	t.Helper()
	out := make([]string, 0, steps)
	for k := 0; k < steps; k++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		out = append(out, stateHash(sim.Sys))
	}
	return out
}

// runMode executes one scenario and returns its golden record.
func runMode(t *testing.T, sc modeScenario) modeGoldenCase {
	t.Helper()
	sim, err := NewSimulation(Plummer(sc.n, 1, 1, 1, sc.seed), sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Prime(); err != nil {
		t.Fatal(err)
	}
	got := modeGoldenCase{Name: sc.name, StepHashes: stepHashes(t, sim, sc.steps)}
	if sc.ckpt {
		b, err := checkpointBytes(sim)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got.CkptHash = hex.EncodeToString(sum[:])
	}
	return got
}

// loadModeGoldens reads the golden file into a by-name map.
func loadModeGoldens(t *testing.T) map[string]modeGoldenCase {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes recorded on amd64; %s may contract FMAs differently", runtime.GOARCH)
	}
	data, err := os.ReadFile(modeGoldenPath)
	if err != nil {
		t.Fatalf("reading golden file (REGEN_MODE_GOLDENS=1 to create): %v", err)
	}
	var golden modeGolden
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	out := map[string]modeGoldenCase{}
	for _, c := range golden.Cases {
		out[c.Name] = c
	}
	return out
}

// requireGoldenSteps compares per-step hashes against want, offset by
// the number of steps already taken before got[0].
func requireGoldenSteps(t *testing.T, name string, got, want []string, offset int) {
	t.Helper()
	if offset+len(got) > len(want) {
		t.Fatalf("%s: ran to step %d, golden has %d", name, offset+len(got), len(want))
	}
	for k := range got {
		if got[k] != want[offset+k] {
			t.Fatalf("%s: step %d state hash %s != golden %s", name, offset+k+1, got[k][:16], want[offset+k][:16])
		}
	}
}

// TestModeGoldens replays every mode at GOMAXPROCS 1 and 4 and requires
// each per-step state hash and each pinned checkpoint hash to equal the
// recording.
func TestModeGoldens(t *testing.T) {
	if os.Getenv("REGEN_MODE_GOLDENS") != "" {
		regenModeGoldens(t)
		return
	}
	want := loadModeGoldens(t)
	for _, procs := range []int{1, 4} {
		for _, sc := range modeScenarios() {
			t.Run(fmt.Sprintf("%s/procs=%d", sc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				w, ok := want[sc.name]
				if !ok {
					t.Fatalf("mode %q missing from %s", sc.name, modeGoldenPath)
				}
				got := runMode(t, sc)
				if len(got.StepHashes) != len(w.StepHashes) {
					t.Fatalf("ran %d steps, golden has %d", len(got.StepHashes), len(w.StepHashes))
				}
				requireGoldenSteps(t, sc.name, got.StepHashes, w.StepHashes, 0)
				if got.CkptHash != w.CkptHash {
					t.Fatalf("checkpoint hash %s != golden %s", got.CkptHash, w.CkptHash)
				}
			})
		}
	}
}

// TestResumeV1CheckpointOntoGolden resumes the committed version-1
// checkpoint and requires the remaining steps to match the golden
// trajectory of the uninterrupted run.
func TestResumeV1CheckpointOntoGolden(t *testing.T) {
	want := loadModeGoldens(t)["guarded-fixed"]
	c, err := ckpt.ReadFile(v1CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if c.Block != nil {
		t.Fatalf("%s carries a RUNG section; want a version-1 fixed-dt checkpoint", v1CheckpointPath)
	}
	sim, err := ResumeSimulation(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if !sim.Primed() || sim.Steps() != modeGoldenCut {
		t.Fatalf("resumed primed=%v at step %d, want primed at step %d", sim.Primed(), sim.Steps(), modeGoldenCut)
	}
	got := stepHashes(t, sim, len(want.StepHashes)-modeGoldenCut)
	requireGoldenSteps(t, "v1 resume", got, want.StepHashes, modeGoldenCut)
}

// regenModeGoldens rewrites the golden file from the current build.
func regenModeGoldens(t *testing.T) {
	golden := modeGolden{Arch: runtime.GOARCH}
	for _, sc := range modeScenarios() {
		c := runMode(t, sc)
		golden.Cases = append(golden.Cases, c)
		t.Logf("recorded %s: %d steps, final %s…", sc.name, len(c.StepHashes), c.StepHashes[len(c.StepHashes)-1][:16])
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(modeGoldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(modeGoldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", modeGoldenPath)
}
