// Package probe collects the topological profile of a platform by running
// the paper's microbenchmark protocol (§IV.A) against the simulated runtime:
//
//   - Oij (i ≠ j): repeated round trips of messages of growing size; the
//     intercept of a least-squares fit over size, halved (link symmetry),
//     estimates the per-message startup overhead. As in any ping-pong
//     estimator the raw intercept also contains one batch-marginal term, so
//     the fitted Lij is subtracted.
//   - Lij: a growing number of simultaneous zero-payload messages from i to
//     j; the gradient of a least-squares fit over batch size estimates the
//     marginal cost of one more message in a batch.
//   - Oii: the mean cost of initiating communication requests that cause no
//     transmission.
//
// Ranks pace each other with untimed handshakes, so concurrent progress on
// disjoint pairs never contaminates a timed region. Each side of a pair runs
// its whole protocol as one program (Comm.Steps), and every sample is a
// difference of its steps' completion times: the virtual times Comm.Wtime
// reads between the same calls, as a wall-clock benchmark observes
// MPI_Wtime.
//
// The optional Replicate mode implements the reduction the paper describes
// in §IV.B: it measures one representative pair per interconnect link class
// and replicates the result across all structurally identical pairs. It uses
// only a-priori structural knowledge (the machine spec and placement), never
// the fabric's cost parameters.
package probe

import (
	"errors"
	"fmt"
	"slices"

	"topobarrier/internal/mpi"
	"topobarrier/internal/profile"
	"topobarrier/internal/stats"
	"topobarrier/internal/topo"
)

// Config controls the benchmark protocol.
type Config struct {
	// Sizes are the message sizes (bytes) of the Oij round-trip sweep.
	Sizes []int
	// Batches are the batch sizes of the Lij simultaneous-send sweep.
	Batches []int
	// Reps is the number of timed repetitions averaged per sample point.
	Reps int
	// Warmup is the number of untimed repetitions preceding each sample.
	Warmup int
	// Replicate measures one pair per link class instead of all pairs.
	Replicate bool
}

// Default returns a light-weight configuration suitable for simulation runs:
// fewer, smaller sizes than the paper's hardware protocol, which keeps full
// profiles fast while recovering the same parameters.
func Default() Config {
	return Config{
		Sizes:   []int{1, 4, 16, 64, 256, 1024, 4096},
		Batches: []int{1, 2, 4, 8, 16, 32},
		Reps:    5,
		Warmup:  2,
	}
}

// Paper returns the paper's exact protocol: sizes 2^0..2^20, batches 1..32,
// 25 repetitions per sample.
func Paper() Config {
	cfg := Config{Reps: 25, Warmup: 3}
	for e := 0; e <= 20; e++ {
		cfg.Sizes = append(cfg.Sizes, 1<<uint(e))
	}
	for m := 1; m <= 32; m++ {
		cfg.Batches = append(cfg.Batches, m)
	}
	return cfg
}

// Key renders the measurement-relevant configuration as a stable string for
// profile cache fingerprints: two configs with equal keys produce
// interchangeable profiles on the same platform.
func (cfg Config) Key() string {
	return fmt.Sprintf("sizes=%v,batches=%v,reps=%d,warmup=%d,replicate=%v",
		cfg.Sizes, cfg.Batches, cfg.Reps, cfg.Warmup, cfg.Replicate)
}

func (cfg Config) validate(p int) error {
	if len(cfg.Sizes) < 2 {
		return fmt.Errorf("probe: need at least 2 message sizes, have %d", len(cfg.Sizes))
	}
	if len(cfg.Batches) < 2 {
		return fmt.Errorf("probe: need at least 2 batch sizes, have %d", len(cfg.Batches))
	}
	if slices.Min(cfg.Batches) < 0 {
		return fmt.Errorf("probe: negative batch size in %v", cfg.Batches)
	}
	if cfg.Reps < 1 {
		return fmt.Errorf("probe: non-positive repetition count %d", cfg.Reps)
	}
	if cfg.Warmup < 0 {
		return fmt.Errorf("probe: negative warmup %d", cfg.Warmup)
	}
	if p < 2 {
		return fmt.Errorf("probe: profiling needs at least 2 ranks, have %d", p)
	}
	return nil
}

// Measure profiles the world's platform and returns its topological model.
// The profile is symmetric by construction (the paper's assumption that
// round-trip cost is twice one-way cost).
//
// Up to denseLimit ranks every pair is measured; above, the probe finds the
// hierarchy with zero-byte round-trip screens, measures only the links the
// profile keeps (survey.sparse), and the profile's Provenance says which
// entries are estimates. Either way the work is a sequence of phases, each
// one w.Run over rounds of disjoint pairs on disjoint tag spaces, overlapping
// in (virtual) time. The fabric has one noise stream, drawn in the simulator's
// event order: a seed, rank count and Config reproduce the profile bit for
// bit, while another schedule of the same pairs draws different noise.
func Measure(w *mpi.World, cfg Config) (*profile.Profile, error) {
	sim, err := newSimulator(w, cfg)
	if err != nil {
		return nil, err
	}
	p, fab := w.Size(), w.Fabric()
	s := newSurvey(fab.Spec().Name, p, sim.run, sim.screen)
	if !cfg.Replicate {
		if err := s.sparse(s.all()); err != nil {
			return nil, err
		}
		return s.finish()
	}

	// §IV.B: measure the first pair of each link class in tournament order
	// and replicate it across the class; Oii becomes the mean over ranks.
	var pairs []Pair
	rep := make(map[topo.LinkClass]Pair)
	for _, round := range Rounds(p) {
		for _, pr := range round {
			if _, ok := rep[fab.Class(pr.I, pr.J)]; !ok {
				rep[fab.Class(pr.I, pr.J)] = pr
				pairs = append(pairs, pr)
			}
		}
	}
	if err := s.phase(pairs); err != nil {
		return nil, err
	}
	oii := 0.0
	for i := 0; i < p; i++ {
		oii += s.pf.O.At(i, i)
	}
	for i := 0; i < p; i++ {
		s.pf.O.Set(i, i, oii/float64(p))
		for j := i + 1; j < p; j++ {
			r := rep[fab.Class(i, j)]
			s.set(i, j, s.pf.O.At(r.I, r.J), s.pf.L.At(r.I, r.J), false)
			s.set(j, i, s.pf.O.At(r.I, r.J), s.pf.L.At(r.I, r.J), false)
		}
	}
	return s.finish()
}

// newSimulator returns the measuring side of a survey of the world's platform.
func newSimulator(w *mpi.World, cfg Config) (*simulator, error) {
	if err := cfg.validate(w.Size()); err != nil {
		return nil, err
	}
	sim := &simulator{w: w, cfg: cfg, progs: make([]program, w.Size())}
	for _, n := range cfg.Sizes {
		sim.sizeXs = append(sim.sizeXs, float64(n))
	}
	for _, m := range cfg.Batches {
		sim.batchXs = append(sim.batchXs, float64(m))
	}
	return sim, nil
}

// simulator is the survey's measuring side on the simulated runtime.
type simulator struct {
	w               *mpi.World
	cfg             Config
	sizeXs, batchXs []float64
	selfDone        bool      // Oii is measured once, at the end of the first phase
	progs           []program // per rank, reused across its pairs and phases
}

// program is one rank's side of one pair's protocol, built for Comm.Steps in
// buffers the rank reuses from pair to pair.
type program struct {
	peers []int // as long as the largest batch, every entry the peer
	steps []mpi.Step
	done  []float64 // the steps' completion times
}

// prog returns rank me's program buffers, emptied for a protocol with peer.
func (m *simulator) prog(me, peer int) *program {
	pg := &m.progs[me]
	if pg.peers == nil {
		cfg := m.cfg
		pg.peers = make([]int, max(slices.Max(cfg.Batches), 1))
		// The longest program: measure's handshake and two steps a repetition.
		pg.steps = make([]mpi.Step, 0, 2+2*(len(cfg.Batches)+len(cfg.Sizes))*(cfg.Warmup+cfg.Reps))
	}
	for k := range pg.peers {
		pg.peers[k] = peer
	}
	pg.steps = pg.steps[:0]
	return pg
}

// signal appends a step in which the rank sends n messages of bytes to the
// peer, when send is set, or receives n from it.
func (pg *program) signal(send bool, tag, n, bytes int) {
	if send {
		pg.steps = append(pg.steps, mpi.Step{Tag: tag, Sends: pg.peers[:n], Bytes: bytes})
	} else {
		pg.steps = append(pg.steps, mpi.Step{Tag: tag, Recvs: pg.peers[:n]})
	}
}

// handshake appends the untimed exchange that aligns the two ranks of a pair
// before timed work begins: the initiator signals first.
func (pg *program) handshake(initiator bool) {
	pg.signal(initiator, 0, 1, 0)
	pg.signal(!initiator, 0, 1, 0)
}

// run executes the program under tag and returns its completion times.
func (pg *program) run(c *mpi.Comm, tag int) []float64 {
	if cap(pg.done) < len(pg.steps) {
		pg.done = make([]float64, len(pg.steps))
	}
	pg.done = pg.done[:len(pg.steps)]
	c.Steps(tag, pg.steps, pg.done)
	return pg.done
}

// run measures one phase: every rank walks the rounds of disjoint pairs in
// order, the lower rank of a pair initiating and recording.
func (m *simulator) run(pairs []Pair, set func(i, j int, o, l float64)) error {
	p := m.w.Size()
	rounds := PairRounds(p, pairs)
	pairErr := make([]error, p) // per initiating rank, in its round order
	if _, err := m.w.Run(func(c *mpi.Comm) {
		me := c.Rank()
		for _, round := range rounds {
			pr, ok := roundOf(round, me)
			if !ok {
				continue // bye round
			}
			tag := (pr.I*p + pr.J) * 8 // disjoint tag space per pair
			if pr.J == me {
				m.measure(c, pr.I, tag, false)
				continue
			}
			l, o, err := m.fit(me, pr.J, m.measure(c, pr.J, tag, true))
			if err != nil {
				// Record and keep going: the fits come after the sweeps, so
				// the pair's protocol is complete and later handshakes stay
				// aligned.
				pairErr[me] = errors.Join(pairErr[me], fmt.Errorf("probe: pair (%d,%d): %w", pr.I, pr.J, err))
				continue
			}
			set(pr.I, pr.J, o, l) // links are symmetric: a pair is measured once
			set(pr.J, pr.I, o, l)
		}
		if m.selfDone {
			return
		}
		// Oii: mean of no-op initiation costs (every rank, measured locally).
		samples := make([]float64, 0, m.cfg.Reps)
		for r := 0; r < m.cfg.Warmup+m.cfg.Reps; r++ {
			t0 := c.Wtime()
			c.NoopInitiate()
			if r >= m.cfg.Warmup {
				samples = append(samples, c.Wtime()-t0)
			}
		}
		set(me, me, stats.Mean(samples), 0)
	}); err != nil {
		return err
	}
	m.selfDone = true
	return errors.Join(pairErr...) // every failed pair by name, not only the last
}

// screen runs one phase of Warmup+Reps zero-byte round trips per pair, the
// lower rank initiating, and hands set each pair's mean half round trip.
func (m *simulator) screen(pairs []Pair, set func(i, j int, d float64)) error {
	p := m.w.Size()
	rounds := PairRounds(p, pairs)
	_, err := m.w.Run(func(c *mpi.Comm) {
		me := c.Rank()
		for _, round := range rounds {
			pr, ok := roundOf(round, me)
			if !ok {
				continue // bye round
			}
			peer, initiator := pr.I, pr.J != me
			if initiator {
				peer = pr.J
			}
			pg := m.prog(me, peer)
			pg.handshake(initiator)
			for r := 0; r < m.cfg.Warmup+m.cfg.Reps; r++ {
				pg.signal(initiator, 1, 1, 0)
				pg.signal(!initiator, 1, 1, 0)
			}
			done := pg.run(c, (pr.I*p+pr.J)*8+5) // past the sweep's tags of the pair
			if !initiator {
				continue
			}
			// Round trip r spans the completion of the step before its
			// send to that of its reply.
			sum := 0.0
			for r, k := 0, 2; r < m.cfg.Warmup+m.cfg.Reps; r, k = r+1, k+2 {
				if r >= m.cfg.Warmup {
					sum += done[k+1] - done[k-1]
				}
			}
			set(pr.I, pr.J, sum/float64(2*m.cfg.Reps))
		}
	})
	return err
}

// floor keeps fitted parameters physically meaningful when noise produces a
// slightly negative intercept or gradient.
const floor = 1e-9

// measure runs one side of a pair's protocol with peer under tag and returns
// its steps' completion times: the handshake, then the L sweep (per
// repetition, the initiator's batch of m simultaneous zero-byte signals and
// the responder's untimed ack, which keeps repetitions in lockstep), then
// the O sweep (per repetition, a round trip of two messages of the size).
func (m *simulator) measure(c *mpi.Comm, peer, tag int, initiator bool) []float64 {
	cfg := m.cfg
	pg := m.prog(c.Rank(), peer)
	pg.handshake(initiator)
	for _, n := range cfg.Batches {
		for r := 0; r < cfg.Warmup+cfg.Reps; r++ {
			pg.signal(initiator, 1, n, 0)
			pg.signal(!initiator, 2, 1, 0)
		}
	}
	for _, s := range cfg.Sizes {
		for r := 0; r < cfg.Warmup+cfg.Reps; r++ {
			pg.signal(initiator, 3, 1, s)
			pg.signal(!initiator, 4, 1, s)
		}
	}
	return pg.run(c, tag)
}

// fit returns the (L, O) estimates of the pair (me, peer) from the
// initiator's completion times of measure's protocol.
func (m *simulator) fit(me, peer int, done []float64) (l, o float64, err error) {
	cfg := m.cfg
	k := 2 // the first step past the handshake

	// L sweep first: the fitted gradient corrects the O intercept below. A
	// batch spans its own step.
	samples := make([]float64, 0, cfg.Reps)
	batchMeans := make([]float64, len(cfg.Batches))
	for bi := range cfg.Batches {
		samples = samples[:0]
		for r := 0; r < cfg.Warmup+cfg.Reps; r, k = r+1, k+2 {
			if r >= cfg.Warmup {
				samples = append(samples, done[k]-done[k-1])
			}
		}
		batchMeans[bi] = stats.Mean(samples)
	}
	lFit, err := stats.LeastSquares(m.batchXs, batchMeans)
	if err != nil {
		return 0, 0, fmt.Errorf("probe: L fit for pair (%d,%d): %w", me, peer, err)
	}
	l = lFit.Slope
	if l < floor {
		l = floor
	}

	// O sweep: round trips over growing sizes; intercept/2 minus L. A round
	// trip spans its send and its reply.
	sizeMeans := make([]float64, len(cfg.Sizes))
	for si := range cfg.Sizes {
		samples = samples[:0]
		for r := 0; r < cfg.Warmup+cfg.Reps; r, k = r+1, k+2 {
			if r >= cfg.Warmup {
				samples = append(samples, done[k+1]-done[k-1])
			}
		}
		sizeMeans[si] = stats.Mean(samples)
	}
	oFit, err := stats.LeastSquares(m.sizeXs, sizeMeans)
	if err != nil {
		return 0, 0, fmt.Errorf("probe: O fit for pair (%d,%d): %w", me, peer, err)
	}
	o = oFit.Intercept/2 - l
	if o < floor {
		o = floor
	}
	return l, o, nil
}
