// Package probe collects the topological profile of a platform by running
// the paper's microbenchmark protocol (§IV.A), on the simulated runtime
// (Measure) or on any venue that runs rank step programs itself (Programs'
// Phases and Screens: the live mesh's probe, internal/netmpi):
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
// observes MPI_Wtime, or on a live mesh the wall-clock times themselves.
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
	"math"
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
	m, err := NewPrograms(cfg, w.Size())
	if err != nil {
		return nil, err
	}
	return &simulator{Programs: m, w: w}, nil
}

// simulator is the survey's measuring side on the simulated runtime: a phase
// is one World.Run of all Warmup+Reps repetitions, and a sample point their
// mean.
type simulator struct {
	*Programs
	w *mpi.World
}

// runWorld runs a phase's programs on the simulated runtime.
func (m *simulator) runWorld(progs []mpi.Program) error {
	_, err := m.w.Run(progs)
	return err
}

// run measures pairs in one phase, handing set both directions of each and,
// in the first phase, each rank's Oii as (i, i).
func (m *simulator) run(pairs []Pair, set func(i, j int, o, l float64)) error {
	return m.Phases(pairs, 1, 0, m.runWorld, func(i, j int, o, l float64, _ int) {
		set(i, j, o, l)
		if i != j {
			set(j, i, o, l) // links are symmetric: a pair is measured once
		}
	})
}

// screen hands set each pair's mean half round trip over one phase.
func (m *simulator) screen(pairs []Pair, set func(i, j int, d float64)) error {
	return m.Screens(pairs, 1, m.runWorld, set)
}

// NewPrograms returns the protocol's program builder and fit for p ranks,
// on the simulator (Measure) or a live mesh (internal/netmpi). Its phases
// share its arenas, so it serves one caller at a time.
func NewPrograms(cfg Config, p int) (*Programs, error) {
	if err := cfg.validate(p); err != nil {
		return nil, err
	}
	m := &Programs{cfg: cfg, progs: make([]mpi.Program, p), sides: make([][]side, p), peers: make([][]int, p)}
	for _, n := range cfg.Sizes {
		m.sizeXs = append(m.sizeXs, float64(n))
	}
	for _, b := range cfg.Batches {
		m.batchXs = append(m.batchXs, float64(b))
	}
	batch := max(slices.Max(cfg.Batches), 1)
	for q := range m.peers {
		m.peers[q] = slices.Repeat([]int{q}, batch)
	}
	return m, nil
}

// Programs is the protocol's one program builder and fit, whatever venue
// runs the programs. A phase is one program per rank: its side of each of
// its pairs' protocols, in round order, each under the pair's own tags.
type Programs struct {
	cfg             Config
	sizeXs, batchXs []float64
	progs           []mpi.Program // per rank, the phase's program
	steps           []mpi.Step    // the arena every rank's program is carved from
	done            []float64     // the arena of their completion times
	sides           [][]side      // per rank, the pairs of the phase's program
	peers           [][]int       // peers[q]: q as often as the largest batch, every step's peer list
	perPair         int           // the steps of a side of a pair in the phase
	pts, samples    []float64     // points' buffers
	selfDone        bool          // Oii was measured, in the builder's first phase
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
func (m *Programs) begin(pairs []Pair, perPair, extra int) {
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
	m.perPair = perPair
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
func (m *Programs) enter(me int, pr Pair) (peer int, initiator bool) {
	peer, initiator = pr.I, pr.J != me
	if initiator {
		peer = pr.J
	}
	m.sides[me] = append(m.sides[me], side{pr: pr, initiator: initiator, at: len(m.progs[me].Steps)})
	return peer, initiator
}

// signal appends a step in which the rank sends n messages of bytes to the
// peer, when send is set, or receives n from it, under tag.
func (m *Programs) signal(pg *mpi.Program, peer int, send bool, tag, n, bytes int) {
	if send {
		pg.Steps = append(pg.Steps, mpi.Step{Tag: tag, Sends: m.peers[peer][:n], Bytes: bytes})
	} else {
		pg.Steps = append(pg.Steps, mpi.Step{Tag: tag, Recvs: m.peers[peer][:n]})
	}
}

// handshake appends the untimed exchange that aligns the two ranks of a pair
// before timed work begins: the initiator signals first.
func (m *Programs) handshake(pg *mpi.Program, peer int, initiator bool, tag int) {
	m.signal(pg, peer, initiator, tag, 1, 0)
	m.signal(pg, peer, !initiator, tag, 1, 0)
}

// phase builds a phase over pairs: every rank walks the rounds of disjoint
// pairs in order, appending its side of each pair's perPair steps with add
// (the lower rank of a pair initiating and recording), and ends with self
// Oii steps, no-op initiations each its own step.
func (m *Programs) phase(pairs []Pair, perPair, self int, add func(pg *mpi.Program, peer, tag int, initiator bool)) {
	p := len(m.progs)
	rounds := PairRounds(p, pairs)
	m.begin(pairs, perPair, self)
	for me := range m.progs {
		pg := &m.progs[me]
		for _, round := range rounds {
			if pr, ok := roundOf(round, me); ok {
				peer, initiator := m.enter(me, pr)
				add(pg, peer, (pr.I*p+pr.J)*8, initiator) // disjoint tag space per pair
			}
		}
		for range self {
			pg.Steps = append(pg.Steps, mpi.Step{Noop: true})
		}
	}
}

// roundTrips appends one side of a pair's screen with peer: the handshake
// and Warmup+Reps zero-byte round trips, past the sweep's tags of the pair.
func (m *Programs) roundTrips(pg *mpi.Program, peer, tag int, initiator bool) {
	m.handshake(pg, peer, initiator, tag+5)
	for range m.cfg.Warmup + m.cfg.Reps {
		m.signal(pg, peer, initiator, tag+6, 1, 0)
		m.signal(pg, peer, !initiator, tag+6, 1, 0)
	}
}

// halfTrip is a pair's mean half round trip, read off its initiator's
// completion times of roundTrips' protocol from its first step on: a round
// trip spans the completion of the step before its send to that of its reply.
func (m *Programs) halfTrip(done []float64) float64 {
	sum := 0.0
	for k := 2 + 2*m.cfg.Warmup; k < 2+2*(m.cfg.Warmup+m.cfg.Reps); k += 2 {
		sum += done[k+1] - done[k-1]
	}
	return sum / float64(2*m.cfg.Reps)
}

// oii is a rank's Oii: the mean time of its timed no-op steps, the last Reps
// of its program, each from the completion of the step before it.
func (m *Programs) oii(done []float64) float64 {
	sum := 0.0
	for k := len(done) - m.cfg.Reps; k < len(done); k++ {
		prev := 0.0
		if k > 0 {
			prev = done[k-1]
		}
		sum += done[k] - prev
	}
	return sum / float64(m.cfg.Reps)
}

// floor keeps fitted parameters physically meaningful when noise produces a
// slightly negative intercept or gradient.
const floor = 1e-9

// measure appends one side of a pair's protocol with peer under tag: the
// handshake, then the L sweep (per repetition, the initiator's batch of m
// simultaneous zero-byte signals and the responder's untimed ack, which
// keeps repetitions in lockstep), then the O sweep (per repetition, a round
// trip of two messages of the size).
func (m *Programs) measure(pg *mpi.Program, peer, tag int, initiator bool) {
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

// points reads a pair's sample points off its initiator's completion times
// of measure's protocol, from its first step on: each batch's mean time (a
// batch spans its own step), then each size's mean round trip (its send and
// its reply), in Config order. The slice is reused by the next call.
func (m *Programs) points(done []float64) []float64 {
	cfg := m.cfg
	k := 2 // the first step past the handshake
	pts, samples := m.pts[:0], m.samples[:0]
	for range cfg.Batches {
		samples = samples[:0]
		for r := 0; r < cfg.Warmup+cfg.Reps; r, k = r+1, k+2 {
			if r >= cfg.Warmup {
				samples = append(samples, done[k]-done[k-1])
			}
		}
		pts = append(pts, stats.Mean(samples))
	}
	for range cfg.Sizes {
		samples = samples[:0]
		for r := 0; r < cfg.Warmup+cfg.Reps; r, k = r+1, k+2 {
			if r >= cfg.Warmup {
				samples = append(samples, done[k+1]-done[k-1])
			}
		}
		pts = append(pts, stats.Mean(samples))
	}
	m.pts, m.samples = pts, samples
	return pts
}

// fit returns the (L, O) estimates of pair pr from its sample points: L is
// the gradient over batch size, O the round trips' intercept over size,
// halved, minus L.
func (m *Programs) fit(pr Pair, pts []float64) (l, o float64, err error) {
	// L first: the fitted gradient corrects the O intercept.
	nb := len(m.cfg.Batches)
	lFit, err := stats.LeastSquares(m.batchXs, pts[:nb])
	if err != nil {
		return 0, 0, fmt.Errorf("probe: L fit for pair (%d,%d): %w", pr.I, pr.J, err)
	}
	l = lFit.Slope
	if l < floor {
		l = floor
	}
	oFit, err := stats.LeastSquares(m.sizeXs, pts[nb:])
	if err != nil {
		return 0, 0, fmt.Errorf("probe: O fit for pair (%d,%d): %w", pr.I, pr.J, err)
	}
	o = oFit.Intercept/2 - l
	if o < floor {
		o = floor
	}
	return l, o, nil
}

// exec runs a phase's programs on a venue, every Done unwritten (NaN)
// first, and names the pairs a failure left unfinished: those whose
// initiator did not complete its side.
func (m *Programs) exec(run func([]mpi.Program) error) error {
	for k := range m.done {
		m.done[k] = math.NaN()
	}
	err := run(m.progs)
	if err == nil {
		return nil
	}
	var left []profile.Link
	for me, sides := range m.sides {
		for _, sd := range sides {
			if sd.initiator && math.IsNaN(m.progs[me].Done[sd.at+m.perPair-1]) {
				left = append(left, profile.Link{From: sd.pr.I, To: sd.pr.J})
			}
		}
	}
	return fmt.Errorf("probe: pairs %v unfinished: %w", left, err)
}

// Phases measures pairs in phases of Warmup+Reps repetitions on run, a venue
// that runs progs[r] as rank r's program and writes each step's completion
// time into its Done: one program per rank over the pairs still active, in
// the order given, the builder's first phase with every rank's Oii steps.
// Every sample point keeps its median over the phases (the least of a few
// repetitions on a shared host is a lucky hand-off between two idle ranks,
// a floor no barrier reaches). A pair is fitted after each phase and stops
// once its O+L has not improved for stableK phases (never early at 0), or
// after maxPhases. set gets each pair's last fit, with its phases, and each
// rank's Oii as (i, i, Oii, 0, 0); a pair that does not fit is named in the
// error, and the others are set.
func (m *Programs) Phases(pairs []Pair, maxPhases, stableK int, run func([]mpi.Program) error, set func(i, j int, o, l float64, phases int)) error {
	type fold struct {
		seen          []float64 // every phase's sample points, phase after phase
		pts           []float64 // each sample point's median over the phases so far
		o, l, best    float64   // the last fit, and the least O+L fitted
		phases, quiet int       // phases taken, and phases since best improved
		failed        bool
	}
	folds := make(map[Pair]*fold, len(pairs))
	for _, pr := range pairs {
		folds[pr] = &fold{}
	}
	var errs []error // every pair that did not fit, initiators in rank order
	perPair := 2 + 2*(len(m.cfg.Batches)+len(m.cfg.Sizes))*(m.cfg.Warmup+m.cfg.Reps)
	for len(pairs) > 0 {
		self := 0
		if !m.selfDone {
			self, m.selfDone = m.cfg.Warmup+m.cfg.Reps, true
		}
		m.phase(pairs, perPair, self, m.measure)
		if err := m.exec(run); err != nil {
			return err
		}
		for me := range m.progs {
			done := m.progs[me].Done
			if self > 0 {
				set(me, me, max(m.oii(done), floor), 0, 0) // a clock may read a no-op as 0
			}
			for _, sd := range m.sides[me] {
				if !sd.initiator {
					continue
				}
				f, pts := folds[sd.pr], m.points(done[sd.at:])
				f.seen = append(f.seen, pts...)
				if f.phases++; f.phases == 1 {
					f.pts = f.seen // one phase's points are their own medians
				} else {
					if f.phases == 2 {
						f.pts = make([]float64, len(pts))
					}
					for k := range pts {
						col := m.samples[:0]
						for r := k; r < len(f.seen); r += len(pts) {
							col = append(col, f.seen[r])
						}
						m.samples, f.pts[k] = col, stats.Median(col)
					}
				}
				var err error
				if f.l, f.o, err = m.fit(sd.pr, f.pts); err != nil {
					f.failed = true
					errs = append(errs, fmt.Errorf("probe: pair (%d,%d): %w", sd.pr.I, sd.pr.J, err))
				} else if f.phases == 1 || f.o+f.l < f.best {
					f.best, f.quiet = f.o+f.l, 0
				} else {
					f.quiet++
				}
			}
		}
		var active []Pair
		for _, pr := range pairs {
			switch f := folds[pr]; {
			case f.failed:
			case f.phases < maxPhases && (stableK == 0 || f.quiet < stableK):
				active = append(active, pr)
			default:
				set(pr.I, pr.J, f.o, f.l, f.phases)
			}
		}
		pairs = active
	}
	return errors.Join(errs...)
}

// Screens runs phases of Warmup+Reps zero-byte round trips per pair on run,
// as Phases does, and hands set each pair's least half round trip over them.
func (m *Programs) Screens(pairs []Pair, phases int, run func([]mpi.Program) error, set func(i, j int, d float64)) error {
	least := make(map[Pair]float64, len(pairs))
	for phase := range phases {
		m.phase(pairs, 2+2*(m.cfg.Warmup+m.cfg.Reps), 0, m.roundTrips)
		if err := m.exec(run); err != nil {
			return err
		}
		for me, sides := range m.sides {
			for _, sd := range sides {
				if !sd.initiator {
					continue
				}
				if d := m.halfTrip(m.progs[me].Done[sd.at:]); phase == 0 || d < least[sd.pr] {
					least[sd.pr] = d
				}
			}
		}
	}
	for _, pr := range pairs {
		set(pr.I, pr.J, least[pr])
	}
	return nil
}
