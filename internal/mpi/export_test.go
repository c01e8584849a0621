package mpi

// Events and Resumes return the World's totals over every Run so far: events
// executed, and rank coroutine resumes.
func (w *World) Events() int  { return w.events }
func (w *World) Resumes() int { return w.resumes }
