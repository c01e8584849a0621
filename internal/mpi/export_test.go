package mpi

// Events returns the events the World executed over every Run so far.
func (w *World) Events() int { return w.events }
