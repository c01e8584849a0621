package probe

import (
	"errors"
	"fmt"

	"topobarrier/internal/mpi"
	"topobarrier/internal/profile"
	"topobarrier/internal/stats"
	"topobarrier/internal/topo"
)

// MeasureDirected profiles every ordered pair separately, producing a
// possibly asymmetric profile — the extension §IV.A calls trivial. One-way
// latencies are observable because the simulated platform has a global
// virtual clock (the hardware equivalent would be PTP-synchronised clocks);
// the receiver reads the sender's departure timestamp through shared memory
// after the matching receive completes, so the value is only read once the
// message has causally arrived.
//
// Replicate mode measures one representative ordered pair per (link class,
// direction) and replicates it structurally.
func MeasureDirected(w *mpi.World, cfg Config) (*profile.Profile, error) {
	p := w.Size()
	if err := cfg.validate(p); err != nil {
		return nil, err
	}
	fab := w.Fabric()

	type dirKey struct {
		class   topo.LinkClass
		reverse bool // src core > dst core
	}
	var pairs [][2]int
	keys := make([]dirKey, 0)
	seen := map[dirKey]bool{}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				continue
			}
			k := dirKey{class: fab.Class(i, j), reverse: fab.CoreOf(i) > fab.CoreOf(j)}
			if cfg.Replicate {
				if seen[k] {
					continue
				}
				seen[k] = true
			}
			pairs = append(pairs, [2]int{i, j})
			keys = append(keys, k)
		}
	}

	oPair := make([]float64, len(pairs))
	lPair := make([]float64, len(pairs))
	oii := make([]float64, p)
	// sendAt[pi] is written by the sender immediately before a timed
	// operation and read by the receiver after its matching receive.
	sendAt := make([]float64, len(pairs))
	batchXs := make([]float64, len(cfg.Batches))
	for k, m := range cfg.Batches {
		batchXs[k] = float64(m)
	}
	sizeXs := make([]float64, len(cfg.Sizes))
	for k, s := range cfg.Sizes {
		sizeXs[k] = float64(s)
	}

	pairErr := make([]error, len(pairs))
	if _, err := w.Run(func(c *mpi.Comm) {
		me := c.Rank()
		for pi, pr := range pairs {
			src, dst := pr[0], pr[1]
			if src != me && dst != me {
				continue
			}
			tag := pi * 8
			if src == me {
				directedSender(c, dst, tag, cfg, pi, sendAt)
				continue
			}
			l, o, err := directedReceiver(c, src, tag, cfg, pi, sendAt, sizeXs, batchXs)
			if err != nil {
				pairErr[pi] = fmt.Errorf("probe: directed pair %d→%d: %w", src, dst, err)
				continue
			}
			lPair[pi], oPair[pi] = l, o
		}
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
	if err := errors.Join(pairErr...); err != nil {
		return nil, err
	}

	pf := profile.New(fab.Spec().Name+" (directed)", p)
	if cfg.Replicate {
		byKey := map[dirKey][2]float64{}
		for pi := range pairs {
			byKey[keys[pi]] = [2]float64{oPair[pi], lPair[pi]}
		}
		meanOii := stats.Mean(oii)
		for i := 0; i < p; i++ {
			oii[i] = meanOii
			for j := 0; j < p; j++ {
				if i == j {
					continue
				}
				k := dirKey{class: fab.Class(i, j), reverse: fab.CoreOf(i) > fab.CoreOf(j)}
				v, ok := byKey[k]
				if !ok {
					return nil, fmt.Errorf("probe: no representative for %v", k)
				}
				pf.O.Set(i, j, v[0])
				pf.L.Set(i, j, v[1])
			}
		}
	} else {
		for pi, pr := range pairs {
			pf.O.Set(pr[0], pr[1], oPair[pi])
			pf.L.Set(pr[0], pr[1], lPair[pi])
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

// directedSender drives the sending side of one ordered pair.
func directedSender(c *mpi.Comm, dst, tag int, cfg Config, pi int, sendAt []float64) {
	handshake(c, dst, tag, true)
	// L sweep: batches of empty messages; the receiver times them.
	b := c.Batch()
	for _, m := range cfg.Batches {
		for r := 0; r < cfg.Warmup+cfg.Reps; r++ {
			sendAt[pi] = c.Wtime()
			for k := 0; k < m; k++ {
				b.Issend(dst, tag+1, 0)
			}
			b.Wait()
			c.Recv(dst, tag+2) // pace
		}
	}
	// O sweep: single messages of growing size.
	for _, s := range cfg.Sizes {
		for r := 0; r < cfg.Warmup+cfg.Reps; r++ {
			sendAt[pi] = c.Wtime()
			c.Send(dst, tag+3, s)
			c.Recv(dst, tag+4) // pace
		}
	}
}

// directedReceiver times arrivals against the sender's shared departure
// timestamps and fits the directed L and O estimates.
func directedReceiver(c *mpi.Comm, src, tag int, cfg Config, pi int, sendAt []float64, sizeXs, batchXs []float64) (l, o float64, err error) {
	handshake(c, src, tag, false)
	b := c.Batch()
	samples := make([]float64, 0, cfg.Reps)
	batchMeans := make([]float64, len(cfg.Batches))
	for bi, m := range cfg.Batches {
		samples = samples[:0]
		for r := 0; r < cfg.Warmup+cfg.Reps; r++ {
			for k := 0; k < m; k++ {
				b.Irecv(src, tag+1)
			}
			b.Wait()
			if r >= cfg.Warmup {
				samples = append(samples, c.Wtime()-sendAt[pi])
			}
			c.Send(src, tag+2, 0)
		}
		batchMeans[bi] = stats.Mean(samples)
	}
	lFit, err := stats.LeastSquares(batchXs, batchMeans)
	if err != nil {
		return 0, 0, fmt.Errorf("probe: directed L fit (%d->%d): %w", src, c.Rank(), err)
	}
	l = lFit.Slope
	if l < floor {
		l = floor
	}

	sizeMeans := make([]float64, len(cfg.Sizes))
	for si := range cfg.Sizes {
		samples = samples[:0]
		for r := 0; r < cfg.Warmup+cfg.Reps; r++ {
			c.Recv(src, tag+3)
			if r >= cfg.Warmup {
				samples = append(samples, c.Wtime()-sendAt[pi])
			}
			c.Send(src, tag+4, 0)
		}
		sizeMeans[si] = stats.Mean(samples)
	}
	oFit, err := stats.LeastSquares(sizeXs, sizeMeans)
	if err != nil {
		return 0, 0, fmt.Errorf("probe: directed O fit (%d->%d): %w", src, c.Rank(), err)
	}
	// A one-way time is O + β·size + one L term; no halving needed.
	o = oFit.Intercept - l
	if o < floor {
		o = floor
	}
	return l, o, nil
}
