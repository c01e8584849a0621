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
// disjoint pairs never contaminates a timed region. Each rank runs one step
// program per phase (mpi.Program), its side of every pair it is in, and
// every sample is a difference of its steps' completion times: the virtual
// times a rank reads between the same operations, as a wall-clock benchmark
// observes MPI_Wtime.
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
	p := w.Size()
	sim := &simulator{w: w, cfg: cfg, progs: make([]mpi.Program, p), sides: make([][]side, p), peers: make([][]int, p)}
	for _, n := range cfg.Sizes {
		sim.sizeXs = append(sim.sizeXs, float64(n))
	}
	for _, m := range cfg.Batches {
		sim.batchXs = append(sim.batchXs, float64(m))
	}
	batch := max(slices.Max(cfg.Batches), 1)
	for q := range sim.peers {
		sim.peers[q] = slices.Repeat([]int{q}, batch)
	}
	return sim, nil
}

// simulator is the survey's measuring side on the simulated runtime. A phase
// is one World.Run in which every rank runs one program: its side of each of
// its pairs' protocols, in round order, each under the pair's own tags.
type simulator struct {
	w               *mpi.World
	cfg             Config
	sizeXs, batchXs []float64
	selfDone        bool          // Oii is measured once, in the first phase
	progs           []mpi.Program // per rank, the phase's program
	steps           []mpi.Step    // the arena every rank's program is carved from
	done            []float64     // the arena of their completion times
	sides           [][]side      // per rank, the pairs of the phase's program
	peers           [][]int       // peers[q]: q as often as the largest batch, every step's peer list
}

// side is one rank's part in one pair of a phase: the pair, whether the rank
// initiates it, and where its steps start in the rank's program.
type side struct {
	pr        Pair
	initiator bool
	at        int
}

// begin empties every rank's program for a phase over pairs, with room for
// perPair steps a pair the rank is in and extra more. The programs and their
// completion times are carved from two arenas the phases share, so a probe
// allocates about as much as its largest phase needs.
func (m *simulator) begin(pairs []Pair, perPair, extra int) {
	size := make([]int, len(m.progs))
	total := 0
	for _, pr := range pairs {
		size[pr.I] += perPair
		size[pr.J] += perPair
	}
	for me := range size {
		size[me] += extra
		total += size[me]
	}
	m.steps = slices.Grow(m.steps[:0], total)[:total]
	m.done = slices.Grow(m.done[:0], total)[:total]
	for me, off := 0, 0; me < len(size); me, off = me+1, off+size[me] {
		m.sides[me] = m.sides[me][:0]
		pg := &m.progs[me]
		pg.Steps = m.steps[off : off : off+size[me]]
		pg.Done = m.done[off : off+size[me]]
	}
}

// enter records that rank me's program goes on with its side of pr and
// returns the peer and whether me initiates.
func (m *simulator) enter(me int, pr Pair) (peer int, initiator bool) {
	peer, initiator = pr.I, pr.J != me
	if initiator {
		peer = pr.J
	}
	m.sides[me] = append(m.sides[me], side{pr: pr, initiator: initiator, at: len(m.progs[me].Steps)})
	return peer, initiator
}

// signal appends a step in which the rank sends n messages of bytes to the
// peer, when send is set, or receives n from it, under tag.
func (m *simulator) signal(pg *mpi.Program, peer int, send bool, tag, n, bytes int) {
	if send {
		pg.Steps = append(pg.Steps, mpi.Step{Tag: tag, Sends: m.peers[peer][:n], Bytes: bytes})
	} else {
		pg.Steps = append(pg.Steps, mpi.Step{Tag: tag, Recvs: m.peers[peer][:n]})
	}
}

// handshake appends the untimed exchange that aligns the two ranks of a pair
// before timed work begins: the initiator signals first.
func (m *simulator) handshake(pg *mpi.Program, peer int, initiator bool, tag int) {
	m.signal(pg, peer, initiator, tag, 1, 0)
	m.signal(pg, peer, !initiator, tag, 1, 0)
}

// run measures one phase: every rank walks the rounds of disjoint pairs in
// order, the lower rank of a pair initiating and recording, and in the first
// phase ends with the Oii steps.
func (m *simulator) run(pairs []Pair, set func(i, j int, o, l float64)) error {
	p := m.w.Size()
	rounds := PairRounds(p, pairs)
	reps := m.cfg.Warmup + m.cfg.Reps
	self := 0
	if !m.selfDone {
		self = reps
	}
	m.begin(pairs, 2+2*(len(m.cfg.Batches)+len(m.cfg.Sizes))*reps, self)
	for me := range m.progs {
		pg := &m.progs[me]
		for _, round := range rounds {
			if pr, ok := roundOf(round, me); ok {
				peer, initiator := m.enter(me, pr)
				m.measure(pg, peer, (pr.I*p+pr.J)*8, initiator) // disjoint tag space per pair
			}
		}
		// Oii: no-op initiations, each its own step.
		for range self {
			pg.Steps = append(pg.Steps, mpi.Step{Noop: true})
		}
	}
	if _, err := m.w.Run(m.progs); err != nil {
		return err
	}
	var errs []error // every failed pair by name, initiators in rank order
	for me := range m.progs {
		done := m.progs[me].Done
		for _, sd := range m.sides[me] {
			if !sd.initiator {
				continue
			}
			l, o, err := m.fit(sd.pr.I, sd.pr.J, done[sd.at:])
			if err != nil {
				errs = append(errs, fmt.Errorf("probe: pair (%d,%d): %w", sd.pr.I, sd.pr.J, err))
				continue
			}
			set(sd.pr.I, sd.pr.J, o, l) // links are symmetric: a pair is measured once
			set(sd.pr.J, sd.pr.I, o, l)
		}
		if m.selfDone {
			continue
		}
		// Oii: the mean of the timed no-op initiations, each the time from
		// the step before it to its own completion.
		samples := make([]float64, 0, m.cfg.Reps)
		k := len(done) - reps
		for r := 0; r < reps; r, k = r+1, k+1 {
			if r >= m.cfg.Warmup {
				prev := 0.0
				if k > 0 {
					prev = done[k-1]
				}
				samples = append(samples, done[k]-prev)
			}
		}
		set(me, me, stats.Mean(samples), 0)
	}
	m.selfDone = true
	return errors.Join(errs...)
}

// screen runs one phase of Warmup+Reps zero-byte round trips per pair, the
// lower rank initiating, and hands set each pair's mean half round trip.
func (m *simulator) screen(pairs []Pair, set func(i, j int, d float64)) error {
	p := m.w.Size()
	rounds := PairRounds(p, pairs)
	reps := m.cfg.Warmup + m.cfg.Reps
	m.begin(pairs, 2+2*reps, 0)
	for me := range m.progs {
		pg := &m.progs[me]
		for _, round := range rounds {
			pr, ok := roundOf(round, me)
			if !ok {
				continue // bye round
			}
			peer, initiator := m.enter(me, pr)
			tag := (pr.I*p+pr.J)*8 + 5 // past the sweep's tags of the pair
			m.handshake(pg, peer, initiator, tag)
			for range reps {
				m.signal(pg, peer, initiator, tag+1, 1, 0)
				m.signal(pg, peer, !initiator, tag+1, 1, 0)
			}
		}
	}
	if _, err := m.w.Run(m.progs); err != nil {
		return err
	}
	for me := range m.progs {
		for _, sd := range m.sides[me] {
			if !sd.initiator {
				continue
			}
			// Round trip r spans the completion of the step before its
			// send to that of its reply.
			done := m.progs[me].Done[sd.at:]
			sum := 0.0
			for r, k := 0, 2; r < reps; r, k = r+1, k+2 {
				if r >= m.cfg.Warmup {
					sum += done[k+1] - done[k-1]
				}
			}
			set(sd.pr.I, sd.pr.J, sum/float64(2*m.cfg.Reps))
		}
	}
	return nil
}

// floor keeps fitted parameters physically meaningful when noise produces a
// slightly negative intercept or gradient.
const floor = 1e-9

// measure appends one side of a pair's protocol with peer under tag: the
// handshake, then the L sweep (per repetition, the initiator's batch of m
// simultaneous zero-byte signals and the responder's untimed ack, which
// keeps repetitions in lockstep), then the O sweep (per repetition, a round
// trip of two messages of the size).
func (m *simulator) measure(pg *mpi.Program, peer, tag int, initiator bool) {
	cfg := m.cfg
	m.handshake(pg, peer, initiator, tag)
	for _, n := range cfg.Batches {
		for r := 0; r < cfg.Warmup+cfg.Reps; r++ {
			m.signal(pg, peer, initiator, tag+1, n, 0)
			m.signal(pg, peer, !initiator, tag+2, 1, 0)
		}
	}
	for _, s := range cfg.Sizes {
		for r := 0; r < cfg.Warmup+cfg.Reps; r++ {
			m.signal(pg, peer, initiator, tag+3, 1, s)
			m.signal(pg, peer, !initiator, tag+4, 1, s)
		}
	}
}

// fit returns the (L, O) estimates of the pair (me, peer) from the
// initiator's completion times of measure's protocol, from its first step on.
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
