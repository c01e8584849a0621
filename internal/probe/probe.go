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
// disjoint pairs never contaminates a timed region. Every sample is a virtual
// time difference observed through Comm.Wtime, exactly as a wall-clock
// benchmark would observe MPI_Wtime.
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

type pair struct {
	i, j  int // i < j; rank i initiates and records
	class topo.LinkClass
}

// Measure profiles the world's platform and returns its topological model.
// The profile is symmetric by construction (the paper's assumption that
// round-trip cost is twice one-way cost).
//
// Pairs are scheduled as edge-colored tournament rounds (Rounds): within a
// round every rank sits in at most one pair, and the pairs — already on
// disjoint tag spaces — now also overlap in (virtual) time, collapsing the
// O(P²) sequential pairwise blocks into ~P concurrent rounds. Disjoint pairs
// use disjoint links, but the fabric has one noise stream, drawn in the
// simulator's event order (time, then scheduling order): a given seed, rank
// count and Config always interleave the pairs the same way and so reproduce
// the profile bit for bit, while a different schedule of the same pairs draws
// different noise and measures slightly different values.
func Measure(w *mpi.World, cfg Config) (*profile.Profile, error) {
	p := w.Size()
	if err := cfg.validate(p); err != nil {
		return nil, err
	}
	fab := w.Fabric()

	// Enumerate the unordered pairs to measure in tournament-round order;
	// the Replicate filter keeps only the first pair of each link class.
	var pairs []pair
	rounds := Rounds(p)
	sel := make(map[Pair]int, p*(p-1)/2) // scheduled pair → index into pairs
	classRep := make(map[topo.LinkClass]bool)
	for _, round := range rounds {
		for _, pr := range round {
			cl := fab.Class(pr.I, pr.J)
			if cfg.Replicate {
				if classRep[cl] {
					continue
				}
				classRep[cl] = true
			}
			sel[pr] = len(pairs)
			pairs = append(pairs, pair{i: pr.I, j: pr.J, class: cl})
		}
	}

	oPair := make([]float64, len(pairs))
	lPair := make([]float64, len(pairs))
	pairErr := make([]error, len(pairs))
	oii := make([]float64, p)
	sizeXs := make([]float64, len(cfg.Sizes))
	for k, s := range cfg.Sizes {
		sizeXs[k] = float64(s)
	}
	batchXs := make([]float64, len(cfg.Batches))
	for k, m := range cfg.Batches {
		batchXs[k] = float64(m)
	}

	if _, err := w.Run(func(c *mpi.Comm) {
		me := c.Rank()
		for _, round := range rounds {
			pr, ok := roundOf(round, me)
			if !ok {
				continue // bye round
			}
			pi, ok := sel[pr]
			if !ok {
				continue // filtered out by Replicate
			}
			tag := (pr.I*p + pr.J) * 8 // disjoint tag space per pair
			if pr.I == me {
				l, o, err := measureInitiator(c, pr.J, tag, cfg, sizeXs, batchXs)
				if err != nil {
					// Record and keep going: the protocol for this pair has
					// already completed (fits fail after the sweeps), so
					// staying in the round schedule keeps every later
					// handshake aligned.
					pairErr[pi] = fmt.Errorf("probe: pair (%d,%d): %w", pr.I, pr.J, err)
					continue
				}
				lPair[pi], oPair[pi] = l, o
			} else {
				measureResponder(c, pr.I, tag, cfg)
			}
		}
		// Oii: mean of no-op initiation costs (every rank, measured locally).
		samples := make([]float64, 0, cfg.Reps)
		for r := 0; r < cfg.Warmup+cfg.Reps; r++ {
			t0 := c.Wtime()
			c.NoopInitiate()
			if r >= cfg.Warmup {
				samples = append(samples, c.Wtime()-t0)
			}
		}
		oii[me] = stats.Mean(samples)
	}); err != nil {
		return nil, err
	}
	// Aggregate every failed pair by name rather than keeping only the last
	// error: a multi-pair failure names all of them at once.
	if err := errors.Join(pairErr...); err != nil {
		return nil, err
	}

	// Assemble the profile, replicating class representatives if requested.
	pf := profile.New(fab.Spec().Name, p)
	byClass := make(map[topo.LinkClass][2]float64)
	for pi, pr := range pairs {
		byClass[pr.class] = [2]float64{oPair[pi], lPair[pi]}
		pf.O.Set(pr.i, pr.j, oPair[pi])
		pf.O.Set(pr.j, pr.i, oPair[pi])
		pf.L.Set(pr.i, pr.j, lPair[pi])
		pf.L.Set(pr.j, pr.i, lPair[pi])
	}
	if cfg.Replicate {
		meanOii := stats.Mean(oii)
		for i := 0; i < p; i++ {
			oii[i] = meanOii
			for j := i + 1; j < p; j++ {
				v, ok := byClass[fab.Class(i, j)]
				if !ok {
					return nil, fmt.Errorf("probe: no representative for class %v", fab.Class(i, j))
				}
				pf.O.Set(i, j, v[0])
				pf.O.Set(j, i, v[0])
				pf.L.Set(i, j, v[1])
				pf.L.Set(j, i, v[1])
			}
		}
	}
	for i := 0; i < p; i++ {
		pf.O.Set(i, i, oii[i])
	}
	if err := pf.Validate(); err != nil {
		return nil, err
	}
	return pf, nil
}

// floor keeps fitted parameters physically meaningful when noise produces a
// slightly negative intercept or gradient.
const floor = 1e-9

// measureInitiator runs both sweeps from the initiating side and returns the
// fitted (L, O) estimates for the pair.
func measureInitiator(c *mpi.Comm, peer, tag int, cfg Config, sizeXs, batchXs []float64) (l, o float64, err error) {
	handshake(c, peer, tag, true)

	// L sweep first: the fitted gradient corrects the O intercept below.
	b := c.Batch()
	samples := make([]float64, 0, cfg.Reps)
	batchMeans := make([]float64, len(cfg.Batches))
	for bi, m := range cfg.Batches {
		samples = samples[:0]
		for r := 0; r < cfg.Warmup+cfg.Reps; r++ {
			t0 := c.Wtime()
			for k := 0; k < m; k++ {
				b.Issend(peer, tag+1, 0)
			}
			b.Wait()
			t1 := c.Wtime()
			c.Recv(peer, tag+2) // untimed ack keeps reps in lockstep
			if r >= cfg.Warmup {
				samples = append(samples, t1-t0)
			}
		}
		batchMeans[bi] = stats.Mean(samples)
	}
	lFit, err := stats.LeastSquares(batchXs, batchMeans)
	if err != nil {
		return 0, 0, fmt.Errorf("probe: L fit for pair (%d,%d): %w", c.Rank(), peer, err)
	}
	l = lFit.Slope
	if l < floor {
		l = floor
	}

	// O sweep: round trips over growing sizes; intercept/2 minus L.
	sizeMeans := make([]float64, len(cfg.Sizes))
	for si, s := range cfg.Sizes {
		samples = samples[:0]
		for r := 0; r < cfg.Warmup+cfg.Reps; r++ {
			t0 := c.Wtime()
			c.Send(peer, tag+3, s)
			c.Recv(peer, tag+4)
			t1 := c.Wtime()
			if r >= cfg.Warmup {
				samples = append(samples, t1-t0)
			}
		}
		sizeMeans[si] = stats.Mean(samples)
	}
	oFit, err := stats.LeastSquares(sizeXs, sizeMeans)
	if err != nil {
		return 0, 0, fmt.Errorf("probe: O fit for pair (%d,%d): %w", c.Rank(), peer, err)
	}
	o = oFit.Intercept/2 - l
	if o < floor {
		o = floor
	}
	return l, o, nil
}

// measureResponder mirrors measureInitiator on the passive side.
func measureResponder(c *mpi.Comm, peer, tag int, cfg Config) {
	handshake(c, peer, tag, false)
	b := c.Batch()
	for _, m := range cfg.Batches {
		for r := 0; r < cfg.Warmup+cfg.Reps; r++ {
			for k := 0; k < m; k++ {
				b.Irecv(peer, tag+1)
			}
			b.Wait()
			c.Send(peer, tag+2, 0)
		}
	}
	for _, s := range cfg.Sizes {
		for r := 0; r < cfg.Warmup+cfg.Reps; r++ {
			c.Recv(peer, tag+3)
			c.Send(peer, tag+4, s)
		}
	}
}

// handshake aligns the two ranks of a pair before timed work begins.
func handshake(c *mpi.Comm, peer, tag int, initiator bool) {
	if initiator {
		c.Send(peer, tag, 0)
		c.Recv(peer, tag)
	} else {
		c.Recv(peer, tag)
		c.Send(peer, tag, 0)
	}
}
