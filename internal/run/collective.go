package run

import (
	"topobarrier/internal/mpi"
	"topobarrier/internal/sched"
)

// Transfer executes a signal pattern whose messages carry a payload of the
// given size — the general stage-matrix interpreter behind Barrier. Per
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
