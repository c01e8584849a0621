// Package baseline provides directly-coded, topology-neutral barrier
// implementations against the runtime's point-to-point API. They play the
// role of the library barriers the paper compares against: Tree is the
// binomial algorithm the paper verified OpenMPI's MPI_Barrier to implement
// (§VII.C), and Linear, Dissemination and RecursiveDoubling cover the other
// classic designs.
//
// Unlike the schedule interpreter in internal/run, these functions compute
// their communication partners from the rank alone — they embody the
// "handwritten, topology-unaware" approach the adaptive method is measured
// against.
package baseline

import (
	"topobarrier/internal/mpi"
	"topobarrier/internal/run"
)

// Tree is a binomial-tree barrier (gather to rank 0, broadcast back): the
// stand-in for OpenMPI's MPI_Barrier.
func Tree(c *mpi.Comm, tagBase int) {
	me, p := c.Rank(), c.Size()
	if p == 1 {
		return
	}
	// Arrival: receive from every binomial child (lowest stage first), then
	// signal the parent.
	for e := 0; (1 << uint(e)) < p; e++ {
		bit := 1 << uint(e)
		if me&(bit-1) != 0 {
			continue // already signalled a parent in an earlier stage
		}
		if me&bit != 0 {
			c.Send(me-bit, tagBase+e, 0)
			break
		}
		if me+bit < p {
			c.Recv(me+bit, tagBase+e)
		}
	}
	// Departure: mirror image, highest stage first.
	top := 0
	for (1 << uint(top)) < p {
		top++
	}
	for e := top - 1; e >= 0; e-- {
		bit := 1 << uint(e)
		if me&(bit-1) != 0 {
			continue
		}
		if me&bit != 0 {
			c.Recv(me-bit, tagBase+top+e)
			continue
		}
		if me+bit < p {
			c.Send(me+bit, tagBase+top+e, 0)
		}
	}
}

// Linear is the centralized counter barrier: every rank signals rank 0,
// which broadcasts departure.
func Linear(c *mpi.Comm, tagBase int) {
	me, p := c.Rank(), c.Size()
	if p == 1 {
		return
	}
	if me == 0 {
		for n := 1; n < p; n++ {
			c.Recv(mpi.AnySource, tagBase)
		}
		b := c.Batch()
		for dst := 1; dst < p; dst++ {
			b.Issend(dst, tagBase+1, 0)
		}
		b.Wait()
		return
	}
	c.Send(0, tagBase, 0)
	c.Recv(0, tagBase+1)
}

// Dissemination is the log-round dissemination barrier: in round e, rank i
// signals (i+2^e) mod p and hears from (i-2^e) mod p. It has no departure
// phase.
func Dissemination(c *mpi.Comm, tagBase int) {
	me, p := c.Rank(), c.Size()
	for e := 0; (1 << uint(e)) < p; e++ {
		step := 1 << uint(e)
		to := (me + step) % p
		from := (me - step%p + p) % p
		exchange(c, from, to, tagBase+e)
	}
}

// exchange is one pairwise round: hear from one rank while signalling another.
func exchange(c *mpi.Comm, from, to, tag int) {
	b := c.Batch()
	b.Irecv(from, tag)
	b.Issend(to, tag, 0)
	b.Wait()
}

// RecursiveDoubling is the pairwise-exchange barrier; for non-powers of two
// it degrades to Dissemination (the same fallback the schedule generator
// uses).
func RecursiveDoubling(c *mpi.Comm, tagBase int) {
	p := c.Size()
	if p&(p-1) != 0 {
		Dissemination(c, tagBase)
		return
	}
	me := c.Rank()
	for e := 0; (1 << uint(e)) < p; e++ {
		partner := me ^ (1 << uint(e))
		exchange(c, partner, partner, tagBase+e)
	}
}

// All returns the named baseline set, for tests and sweeps.
func All() map[string]run.Func {
	return map[string]run.Func{
		"tree":               Tree,
		"linear":             Linear,
		"dissemination":      Dissemination,
		"recursive-doubling": RecursiveDoubling,
	}
}
