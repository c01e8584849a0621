package probe

// Pair is one unordered probe pair; I < J always. Rank I initiates the
// exchange: the timed side, whose completion times both directions' fit is
// read off.
type Pair struct {
	I, J int
}

// Rounds schedules the complete graph on p ranks as a round-robin tournament
// (the circle method): a proper edge coloring in which every unordered pair
// appears in exactly one round and no rank appears twice within a round. All
// pairs of a round can therefore probe concurrently with every rank in at
// most one timed exchange — measurements stay uncontended while the
// P·(P−1)/2 pairwise blocks collapse into P−1 (even P) or P (odd P) parallel
// rounds.
//
// The schedule is deterministic: rank 0 stays fixed while the remaining
// positions (including the bye slot for odd p) rotate one step per round.
func Rounds(p int) [][]Pair {
	if p < 2 {
		return nil
	}
	n := p
	if n%2 == 1 {
		n++ // pad with a bye slot; its pairings are skipped
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	rounds := make([][]Pair, 0, n-1)
	for r := 0; r < n-1; r++ {
		var round []Pair
		for k := 0; k < n/2; k++ {
			a, b := pos[k], pos[n-1-k]
			if a >= p || b >= p {
				continue // bye
			}
			if a > b {
				a, b = b, a
			}
			round = append(round, Pair{I: a, J: b})
		}
		rounds = append(rounds, round)
		// Rotate all positions but the first one step clockwise.
		last := pos[n-1]
		copy(pos[2:], pos[1:n-1])
		pos[1] = last
	}
	return rounds
}

// PairRounds schedules an arbitrary set of distinct pairs over p ranks as
// rounds of disjoint pairs: each pair, in the order given, takes the first
// round after the last one either of its ranks already sits in, so every rank
// keeps the order given. All pairs in tournament order come back as Rounds(p).
func PairRounds(p int, pairs []Pair) [][]Pair {
	free := make([]int, p) // the first round each rank is free in
	var rounds [][]Pair
	for _, pr := range pairs {
		r := max(free[pr.I], free[pr.J])
		if r == len(rounds) {
			rounds = append(rounds, nil)
		}
		rounds[r] = append(rounds[r], pr)
		free[pr.I], free[pr.J] = r+1, r+1
	}
	return rounds
}

// roundOf returns the pair containing rank me in the given round, if any.
func roundOf(round []Pair, me int) (Pair, bool) {
	for _, pr := range round {
		if pr.I == me || pr.J == me {
			return pr, true
		}
	}
	return Pair{}, false
}
