// Package ckpt implements the durable run-state layer: a versioned,
// section-CRC'd checkpoint format capturing the *complete* simulation
// state — particle system including post-force accelerations and
// potentials, integrator phase, step index and simulation time,
// cosmology anchors, the run's config fingerprint, and the cumulative
// recovery/hardware counters — plus a rotating on-disk Store with a
// manifest for latest-valid discovery.
//
// A snapshot (package snapio) is initial conditions plus provenance; a
// checkpoint is everything needed to continue a run so that the resumed
// trajectory is bitwise identical to the uninterrupted one. Corruption
// is always detected: every section carries a CRC-32C and the reader
// verifies structure, bounds and checksums before returning anything —
// a truncated or bit-flipped checkpoint yields an error, never silently
// wrong physics.
//
// # File format (versions 1 and 2)
//
//	uint32  magic "G5CP"
//	uint32  version
//	uint32  section count (2 for version 1, 3 for version 2)
//	        section "STAT": tag [4]byte, length uint64, payload, crc32c
//	        section "PART": tag [4]byte, length uint64, payload, crc32c
//	        section "RUNG": tag [4]byte, length uint64, payload, crc32c  (v2 only)
//
// All integers are little-endian. STAT is the fixed-size State struct;
// PART is int64 N followed by positions, velocities, accelerations
// (3×float64 each), masses, potentials (float64) and IDs (int64), all
// N long. Section lengths are validated exactly (8 + 96·N for PART), so
// a forged length cannot drive a runaway allocation.
//
// Version 2 adds the RUNG section carrying per-particle timestep
// scheduling state (BlockState): the scheduling mode, the block clock,
// the rung-criterion scalars and the per-particle rung bytes. Writers
// emit version 1 — byte-identical to before the format existed — when
// the checkpoint has no Block, so shared-dt runs keep producing v1
// files and v1 readers keep working on them.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/fsx"
	"repro/internal/nbody"
	"repro/internal/snapio"
	"repro/internal/vec"
)

// Magic identifies checkpoint files ("G5CP").
const Magic = 0x47354350

// Version is the base checkpoint format version (no RUNG section).
const Version = 1

// VersionBlock is the format version carrying the RUNG scheduling
// section; emitted only when Checkpoint.Block is set.
const VersionBlock = 2

// MaxParticles bounds the particle count a reader will accept; a forged
// header beyond it fails before any large allocation.
const MaxParticles = 1 << 31

const (
	tagState = "STAT"
	tagPart  = "PART"
	tagRung  = "RUNG"
)

// Scheduling modes stored in BlockState.Mode.
const (
	// ModeAdaptive is shared adaptive dt: no per-particle rungs, the
	// criterion scalars alone. Older releases wrote it; the format still
	// reads it so that resume can refuse such a checkpoint by name.
	ModeAdaptive = 1
	// ModeBlock is hierarchical block timesteps: per-particle rungs and
	// the block tick clock.
	ModeBlock = 2
)

// bytesPerParticle is the PART payload size per particle: pos, vel, acc
// (3 × 3 float64) + mass + pot (float64) + id (int64).
const bytesPerParticle = 9*8 + 8 + 8 + 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// State is the scalar simulation state stored in the STAT section. All
// fields are fixed-size so the binary layout is the struct's field
// order; any change to this struct is a format version bump.
//
// Fingerprint fields record the configuration the checkpointed run was
// using; zero (or -1 for Engine) means unknown. Resume merges them with
// the caller's config and fails loudly on a conflict.
type State struct {
	// Step is the number of completed integration steps.
	Step int64
	// Time is the elapsed simulation time.
	Time float64
	// DT is the integration timestep.
	DT float64

	// Scale, T0 and Age0 are the cosmology anchors of the driving run
	// (base scale factor and the EdS schedule's start time and a=1 age);
	// all zero for non-cosmological runs.
	Scale float64
	T0    float64
	Age0  float64

	// Config fingerprint (0 = unset/unknown).
	Theta        float64
	Eps          float64
	G            float64
	Ncrit        int64
	LeafCap      int64
	RebuildEvery int64
	PMGrid       int64
	// Engine is the force-engine kind as an integer (-1 = unknown).
	Engine int64
	// Shards is the cluster shard count (bitwise-neutral: any K yields
	// the same trajectory; recorded for provenance and inherit-if-unset).
	Shards int64
	// Seed is the IC generator seed, for provenance only.
	Seed uint64

	// TotalInteractions is the whole-run cumulative pairwise
	// interaction count.
	TotalInteractions int64

	// Guard recovery counters (g5.Recovery), whole-run cumulative.
	RecChecks   int64
	RecRetries  int64
	RecCorrupt  int64
	RecExcluded int64
	RecFallback int64
	RecHostOnly bool

	// Hardware activity counters (g5.Counters), whole-run cumulative.
	HWInteractions int64
	HWPipeSeconds  float64
	HWBusSeconds   float64
	HWBytes        int64
	HWRuns         int64
	HWJPasses      int64
	HWClamps       int64

	// Injected-fault activity counters (g5.FaultStats), whole-run
	// cumulative.
	FaultBitFlips   int64
	FaultStuckCalls int64
	FaultBusErrors  int64
	FaultTransients int64

	// Primed marks the particle accelerations and potentials as valid
	// post-force state: a primed resume continues without re-priming,
	// exactly like the uninterrupted run's next step.
	Primed bool
}

// stateSize is the exact binary size of State; fixed at init.
var stateSize = func() int {
	n := binary.Size(State{})
	if n <= 0 {
		panic("ckpt: State is not fixed-size")
	}
	return n
}()

// BlockState is the per-particle timestep scheduling state stored in
// the version-2 RUNG section. Checkpoints are taken at block boundaries
// (Tick == 0 for an idle scheduler is the common case, but any common
// step boundary the integrator accepts is storable), so a resumed run
// re-enters the block loop exactly where the uninterrupted one was.
type BlockState struct {
	// Mode is the scheduling mode (ModeAdaptive or ModeBlock).
	Mode int64
	// Tick is the block clock in DTMin units (ModeBlock only).
	Tick int64
	// DTMin and Eta are the rung-criterion scalars (Eta doubles as the
	// adaptive criterion's eta in ModeAdaptive).
	DTMin float64
	Eta   float64
	// MaxRung is the coarsest rung exponent (ModeBlock only).
	MaxRung int64
	// Rungs are the per-particle rung assignments indexed by particle
	// ID; empty in ModeAdaptive, exactly N long in ModeBlock.
	Rungs []uint8
}

// rungFixedSize is the RUNG payload size excluding the rung bytes:
// Mode, Tick, DTMin, Eta, MaxRung, and the rung-array length prefix.
const rungFixedSize = 6 * 8

// validate applies the format-level invariants given the particle
// count of the PART section.
func (b *BlockState) validate(n int) error {
	switch b.Mode {
	case ModeAdaptive:
		if len(b.Rungs) != 0 {
			return fmt.Errorf("adaptive scheduling with %d rung entries", len(b.Rungs))
		}
	case ModeBlock:
		if b.MaxRung < 0 || b.MaxRung > 62 {
			return fmt.Errorf("implausible max rung %d", b.MaxRung)
		}
		if len(b.Rungs) != n {
			return fmt.Errorf("%d rung entries for N=%d", len(b.Rungs), n)
		}
		if b.Tick < 0 || b.Tick >= int64(1)<<uint(b.MaxRung) {
			return fmt.Errorf("tick %d outside block span %d", b.Tick, int64(1)<<uint(b.MaxRung))
		}
		for i, r := range b.Rungs {
			if int64(r) > b.MaxRung {
				return fmt.Errorf("rung %d at index %d exceeds max rung %d", r, i, b.MaxRung)
			}
		}
		if !(b.DTMin > 0) || math.IsInf(b.DTMin, 0) {
			return fmt.Errorf("non-positive dtmin %v", b.DTMin)
		}
	default:
		return fmt.Errorf("unknown scheduling mode %d", b.Mode)
	}
	if math.IsNaN(b.DTMin) || math.IsInf(b.DTMin, 0) || math.IsNaN(b.Eta) || math.IsInf(b.Eta, 0) {
		return fmt.Errorf("non-finite criterion scalars dtmin=%v eta=%v", b.DTMin, b.Eta)
	}
	return nil
}

// Checkpoint is the complete durable run state.
type Checkpoint struct {
	State State
	// Sys is the particle system, in the exact in-memory (tree) order
	// of the checkpointed step.
	Sys *nbody.System
	// Block, when non-nil, is the per-particle timestep scheduling
	// state; its presence switches the file to VersionBlock.
	Block *BlockState
}

// FromSnapshot adapts a legacy snapshot into a resumable checkpoint:
// the snapshot's particles become initial conditions (accelerations are
// not trusted — the resume re-primes) and the header's provenance
// fields seed the fingerprint. A version-1 snapshot has no stored DT;
// State.DT is then 0 and resume demands an explicit timestep.
func FromSnapshot(h snapio.Header, s *nbody.System) *Checkpoint {
	return &Checkpoint{
		State: State{
			Step:   h.Step,
			Time:   h.Time,
			DT:     h.DT,
			Scale:  h.Scale,
			Theta:  h.Theta,
			Eps:    h.Eps,
			Engine: -1,
		},
		Sys: s,
	}
}

// Write serialises the checkpoint to w.
func Write(w io.Writer, c *Checkpoint) error {
	if c == nil || c.Sys == nil {
		return fmt.Errorf("ckpt: nil checkpoint")
	}
	s := c.Sys
	n := s.N()
	if len(s.Vel) != n || len(s.Acc) != n || len(s.Mass) != n || len(s.Pot) != n || len(s.ID) != n {
		return fmt.Errorf("ckpt: inconsistent particle arrays")
	}
	if c.Block != nil {
		if err := c.Block.validate(n); err != nil {
			return fmt.Errorf("ckpt: block state: %w", err)
		}
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	le := binary.LittleEndian

	version, sections := uint32(Version), uint32(2)
	if c.Block != nil {
		version, sections = VersionBlock, 3
	}
	var hdr [12]byte
	le.PutUint32(hdr[0:], Magic)
	le.PutUint32(hdr[4:], version)
	le.PutUint32(hdr[8:], sections)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}

	// STAT
	if err := writeSection(bw, tagState, uint64(stateSize), func(sw io.Writer) error {
		return binary.Write(sw, le, &c.State)
	}); err != nil {
		return err
	}

	// PART
	partLen := uint64(8 + n*bytesPerParticle)
	if err := writeSection(bw, tagPart, partLen, func(sw io.Writer) error {
		if err := binary.Write(sw, le, int64(n)); err != nil {
			return err
		}
		for _, arr := range [][]vec.V3{s.Pos, s.Vel, s.Acc} {
			for _, p := range arr {
				if err := binary.Write(sw, le, [3]float64{p.X, p.Y, p.Z}); err != nil {
					return err
				}
			}
		}
		if err := binary.Write(sw, le, s.Mass); err != nil {
			return err
		}
		if err := binary.Write(sw, le, s.Pot); err != nil {
			return err
		}
		return binary.Write(sw, le, s.ID)
	}); err != nil {
		return err
	}

	// RUNG (version 2 only)
	if b := c.Block; b != nil {
		rungLen := uint64(rungFixedSize + len(b.Rungs))
		if err := writeSection(bw, tagRung, rungLen, func(sw io.Writer) error {
			for _, v := range []int64{b.Mode, b.Tick} {
				if err := binary.Write(sw, le, v); err != nil {
					return err
				}
			}
			for _, v := range []float64{b.DTMin, b.Eta} {
				if err := binary.Write(sw, le, v); err != nil {
					return err
				}
			}
			if err := binary.Write(sw, le, b.MaxRung); err != nil {
				return err
			}
			if err := binary.Write(sw, le, int64(len(b.Rungs))); err != nil {
				return err
			}
			_, err := sw.Write(b.Rungs)
			return err
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeSection writes one tagged, length-prefixed, CRC-trailed section.
// The payload streams through a CRC writer, so no section-sized buffer
// is needed; the declared length is verified against the bytes actually
// produced.
func writeSection(w io.Writer, tag string, length uint64, payload func(io.Writer) error) error {
	le := binary.LittleEndian
	if _, err := io.WriteString(w, tag); err != nil {
		return err
	}
	if err := binary.Write(w, le, length); err != nil {
		return err
	}
	cw := &crcWriter{w: w}
	if err := payload(cw); err != nil {
		return err
	}
	if cw.n != int64(length) {
		return fmt.Errorf("ckpt: section %s wrote %d bytes, declared %d", tag, cw.n, length)
	}
	return binary.Write(w, le, cw.crc)
}

// Read parses and fully validates a checkpoint: magic, version, section
// structure, exact lengths, particle-count bounds and every CRC. It
// returns an error on any deviation; a successful return is a complete,
// checksum-verified checkpoint.
func Read(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	le := binary.LittleEndian

	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("ckpt: reading header: %w", err)
	}
	if m := le.Uint32(hdr[0:]); m != Magic {
		return nil, fmt.Errorf("ckpt: bad magic %#x", m)
	}
	version := le.Uint32(hdr[4:])
	if version != Version && version != VersionBlock {
		return nil, fmt.Errorf("ckpt: unsupported version %d", version)
	}
	wantSections := uint32(2)
	if version == VersionBlock {
		wantSections = 3
	}
	if ns := le.Uint32(hdr[8:]); ns != wantSections {
		return nil, fmt.Errorf("ckpt: version %d expects %d sections, header says %d", version, wantSections, ns)
	}

	c := &Checkpoint{}

	// STAT: fixed size known up front.
	if err := readSection(br, tagState, func(length uint64, pr io.Reader) error {
		if length != uint64(stateSize) {
			return fmt.Errorf("state section is %d bytes, want %d (format drift?)", length, stateSize)
		}
		return binary.Read(pr, le, &c.State)
	}); err != nil {
		return nil, err
	}

	// PART: length is validated against the N it declares.
	if err := readSection(br, tagPart, func(length uint64, pr io.Reader) error {
		var n64 int64
		if err := binary.Read(pr, le, &n64); err != nil {
			return fmt.Errorf("particle count: %w", err)
		}
		if n64 < 0 || n64 > MaxParticles {
			return fmt.Errorf("implausible particle count %d", n64)
		}
		if want := uint64(8 + n64*bytesPerParticle); length != want {
			return fmt.Errorf("particle section is %d bytes for N=%d, want %d", length, n64, want)
		}
		sys, err := readParticles(pr, int(n64))
		if err != nil {
			return err
		}
		c.Sys = sys
		return nil
	}); err != nil {
		return nil, err
	}

	// RUNG (version 2): fixed scalars plus the rung array, whose length
	// prefix must agree with the declared section length and the
	// particle count already read from PART.
	if version == VersionBlock {
		if err := readSection(br, tagRung, func(length uint64, pr io.Reader) error {
			if length < rungFixedSize {
				return fmt.Errorf("rung section is %d bytes, want at least %d", length, rungFixedSize)
			}
			b := &BlockState{}
			for _, dst := range []*int64{&b.Mode, &b.Tick} {
				if err := binary.Read(pr, le, dst); err != nil {
					return err
				}
			}
			for _, dst := range []*float64{&b.DTMin, &b.Eta} {
				if err := binary.Read(pr, le, dst); err != nil {
					return err
				}
			}
			if err := binary.Read(pr, le, &b.MaxRung); err != nil {
				return err
			}
			var nr int64
			if err := binary.Read(pr, le, &nr); err != nil {
				return err
			}
			if nr < 0 || nr > MaxParticles {
				return fmt.Errorf("implausible rung count %d", nr)
			}
			if want := uint64(rungFixedSize + nr); length != want {
				return fmt.Errorf("rung section is %d bytes for %d rungs, want %d", length, nr, want)
			}
			if nr > 0 {
				b.Rungs = make([]uint8, nr)
				if _, err := io.ReadFull(pr, b.Rungs); err != nil {
					return fmt.Errorf("rungs: %w", err)
				}
			}
			if err := b.validate(c.Sys.N()); err != nil {
				return err
			}
			c.Block = b
			return nil
		}); err != nil {
			return nil, err
		}
	}

	if !stateFinite(&c.State) {
		return nil, fmt.Errorf("ckpt: non-finite scalar state")
	}
	return c, nil
}

// readSection consumes one section, streaming the payload through a CRC
// reader and verifying the stored checksum after the parser has
// consumed exactly the declared length. The parse result is discarded
// by the caller if this returns an error, so corrupt payload bytes are
// never integrated.
func readSection(br io.Reader, wantTag string, parse func(length uint64, pr io.Reader) error) error {
	le := binary.LittleEndian
	var tag [4]byte
	if _, err := io.ReadFull(br, tag[:]); err != nil {
		return fmt.Errorf("ckpt: reading section tag: %w", err)
	}
	if string(tag[:]) != wantTag {
		return fmt.Errorf("ckpt: section %q where %q expected", tag[:], wantTag)
	}
	var length uint64
	if err := binary.Read(br, le, &length); err != nil {
		return fmt.Errorf("ckpt: section %s length: %w", wantTag, err)
	}
	if length > 8+uint64(MaxParticles)*bytesPerParticle {
		return fmt.Errorf("ckpt: section %s declares implausible length %d", wantTag, length)
	}
	cr := &crcReader{r: io.LimitReader(br, int64(length))}
	if err := parse(length, cr); err != nil {
		return fmt.Errorf("ckpt: section %s: %w", wantTag, err)
	}
	if cr.n != int64(length) {
		return fmt.Errorf("ckpt: section %s parser consumed %d of %d bytes", wantTag, cr.n, length)
	}
	var stored uint32
	if err := binary.Read(br, le, &stored); err != nil {
		return fmt.Errorf("ckpt: section %s checksum: %w", wantTag, err)
	}
	if stored != cr.crc {
		return fmt.Errorf("ckpt: section %s CRC mismatch (stored %#08x, computed %#08x): checkpoint is corrupt", wantTag, stored, cr.crc)
	}
	return nil
}

// readParticles parses the PART arrays. Buffers grow as data actually
// arrives (like snapio), so a truncated stream fails with a clean error
// before N-sized memory is committed.
func readParticles(pr io.Reader, n int) (*nbody.System, error) {
	le := binary.LittleEndian
	pre := n
	if pre > 1<<16 {
		pre = 1 << 16
	}
	readV3s := func(what string) ([]vec.V3, error) {
		out := make([]vec.V3, 0, pre)
		var raw [24]byte
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(pr, raw[:]); err != nil {
				return nil, fmt.Errorf("%s: %w", what, err)
			}
			out = append(out, vec.V3{
				X: math.Float64frombits(le.Uint64(raw[0:])),
				Y: math.Float64frombits(le.Uint64(raw[8:])),
				Z: math.Float64frombits(le.Uint64(raw[16:])),
			})
		}
		return out, nil
	}
	readF64s := func(what string) ([]float64, error) {
		out := make([]float64, 0, pre)
		var raw [8]byte
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(pr, raw[:]); err != nil {
				return nil, fmt.Errorf("%s: %w", what, err)
			}
			out = append(out, math.Float64frombits(le.Uint64(raw[:])))
		}
		return out, nil
	}

	pos, err := readV3s("positions")
	if err != nil {
		return nil, err
	}
	vel, err := readV3s("velocities")
	if err != nil {
		return nil, err
	}
	acc, err := readV3s("accelerations")
	if err != nil {
		return nil, err
	}
	mass, err := readF64s("masses")
	if err != nil {
		return nil, err
	}
	pot, err := readF64s("potentials")
	if err != nil {
		return nil, err
	}
	id := make([]int64, 0, pre)
	var raw [8]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(pr, raw[:]); err != nil {
			return nil, fmt.Errorf("ids: %w", err)
		}
		id = append(id, int64(le.Uint64(raw[:])))
	}
	return &nbody.System{Pos: pos, Vel: vel, Acc: acc, Mass: mass, Pot: pot, ID: id}, nil
}

// stateFinite rejects NaN/Inf in the float scalar state: corrupt values
// that happen to pass CRC (a writer bug, not bit rot) must still never
// reach the integrator.
func stateFinite(st *State) bool {
	for _, v := range []float64{
		st.Time, st.DT, st.Scale, st.T0, st.Age0,
		st.Theta, st.Eps, st.G,
		st.HWPipeSeconds, st.HWBusSeconds,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// WriteFile writes a checkpoint atomically: temp file, fsync, rename,
// directory fsync. A crash at any instant leaves either the previous
// file or the complete new one. Returns the bytes written.
func WriteFile(path string, c *Checkpoint) (int64, error) {
	return fsx.AtomicWriteFile(path, func(w io.Writer) error {
		return Write(w, c)
	})
}

// ReadFile loads and validates a checkpoint from the named file.
func ReadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// crcWriter tees writes into a CRC-32C and counts bytes.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += int64(n)
	return n, err
}

// crcReader tees reads into a CRC-32C and counts bytes.
type crcReader struct {
	r   io.Reader
	crc uint32
	n   int64
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += int64(n)
	return n, err
}
