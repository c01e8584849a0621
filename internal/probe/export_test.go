package probe

import (
	"topobarrier/internal/mpi"
	"topobarrier/internal/profile"
)

// MeasureAllPairs is the reference the hierarchy-driven probe is compared
// with: the dense leaf routine on the whole rank set, whatever its size.
func MeasureAllPairs(w *mpi.World, cfg Config) (*profile.Profile, error) {
	sim, err := newSimulator(w, cfg)
	if err != nil {
		return nil, err
	}
	s := newSurvey(w.Fabric().Spec().Name, w.Size(), sim.run)
	if err := s.dense(s.all()); err != nil {
		return nil, err
	}
	return s.finish()
}
