package run

import (
	"fmt"

	"topobarrier/internal/mpi"
	"topobarrier/internal/sched"
)

// Transfer executes a signal pattern whose messages carry a payload of the
// given size — the general stage-matrix interpreter behind Barrier and the
// executor for gather/broadcast collectives composed by internal/coll. Per
// stage: post receives, issue synchronized sends, wait for all.
func Transfer(c *mpi.Comm, s *sched.Schedule, tagBase, bytes int) {
	me, b := c.Rank(), c.Batch()
	for k, st := range s.Stages {
		tag := tagBase + k
		sources := st.Col(me)
		targets := st.Row(me)
		if len(sources) == 0 && len(targets) == 0 {
			continue
		}
		for _, src := range sources {
			b.Irecv(src, tag)
		}
		for _, dst := range targets {
			b.Issend(dst, tag, bytes)
		}
		b.Wait()
	}
}

// TransferFunc adapts a sized pattern to the Func interface.
func TransferFunc(s *sched.Schedule, bytes int) Func {
	return func(c *mpi.Comm, tagBase int) { Transfer(c, s, tagBase, bytes) }
}

// ValidateBroadcast checks broadcast semantics by delay injection: with the
// root entering `delay` late, every rank that participates must leave after
// the root entered (its payload cannot overtake the root's arrival).
func ValidateBroadcast(w *mpi.World, s *sched.Schedule, root int, delay float64) error {
	if !s.IsBroadcast(root) {
		return fmt.Errorf("run: %q is not a broadcast from %d", s.Name, root)
	}
	enter := make([]float64, w.Size())
	exit := make([]float64, w.Size())
	_, err := w.Run(func(c *mpi.Comm) {
		if c.Rank() == root {
			c.Compute(delay)
		}
		enter[c.Rank()] = c.Wtime()
		Transfer(c, s, 0, 0)
		exit[c.Rank()] = c.Wtime()
	})
	if err != nil {
		return err
	}
	for r, x := range exit {
		if x < enter[root] {
			return fmt.Errorf("run: rank %d finished broadcast at %g before root %d entered at %g",
				r, x, root, enter[root])
		}
	}
	return nil
}

// ValidateGather checks gather semantics by delay injection: delaying each
// rank in delayRanks in turn, the root must leave after the delayed rank
// entered (its contribution cannot be skipped). nil delays every rank.
func ValidateGather(w *mpi.World, s *sched.Schedule, root int, delay float64, delayRanks []int) error {
	if !s.IsGather(root) {
		return fmt.Errorf("run: %q is not a gather to %d", s.Name, root)
	}
	if delayRanks == nil {
		delayRanks = make([]int, w.Size())
		for i := range delayRanks {
			delayRanks[i] = i
		}
	}
	for _, d := range delayRanks {
		enter := make([]float64, w.Size())
		exit := make([]float64, w.Size())
		_, err := w.Run(func(c *mpi.Comm) {
			if c.Rank() == d {
				c.Compute(delay)
			}
			enter[c.Rank()] = c.Wtime()
			Transfer(c, s, 0, 0)
			exit[c.Rank()] = c.Wtime()
		})
		if err != nil {
			return fmt.Errorf("run: gather with rank %d delayed: %w", d, err)
		}
		if exit[root] < enter[d] {
			return fmt.Errorf("run: root %d finished gather at %g before rank %d entered at %g",
				root, exit[root], d, enter[d])
		}
	}
	return nil
}
