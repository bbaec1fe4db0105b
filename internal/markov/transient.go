package markov

import (
	"fmt"
	"math"
)

// TransientSolver computes time-dependent state distributions of a CTMC by
// uniformization: the chain is embedded in a Poisson process of rate Λ (the
// maximum total outflow), and the distribution at t+dt is a Poisson-weighted
// mixture of powers of the uniformized transition matrix. The method is
// numerically exact up to the truncation of the Poisson series (taken to a
// 1e-12 tail here).
//
// It is used to cross-validate the Monte-Carlo transient estimator of the
// streaming model (dmpmodel.TransientFractionLate) on truncated instances.
type TransientSolver[S comparable] struct {
	states []S
	index  map[S]int
	// Uniformized DTMC in CSR-ish form.
	rowStart []int32
	colIdx   []int32
	prob     []float64
	lambda   float64
	dist     []float64
	scratch  []float64
	out      []float64 // Advance's Poisson-weighted sum
}

// NewTransientSolver enumerates the reachable space and builds the
// uniformized chain, starting from a point mass on init.
func NewTransientSolver[S comparable](g Generator[S], init S, maxStates int) (*TransientSolver[S], error) {
	states, index, err := Enumerate(g, init, maxStates)
	if err != nil {
		return nil, err
	}
	n := len(states)
	ts := &TransientSolver[S]{
		states:   states,
		index:    index,
		rowStart: make([]int32, n+1),
		dist:     make([]float64, n),
		scratch:  make([]float64, n),
		out:      make([]float64, n),
	}

	// Find Λ.
	outRates := make([]float64, n)
	for i, s := range states {
		var total float64
		for _, tr := range g(s) {
			if index[tr.Next] != i {
				total += tr.Rate
			}
		}
		outRates[i] = total
		if total > ts.lambda {
			ts.lambda = total
		}
	}
	if ts.lambda == 0 {
		return nil, fmt.Errorf("markov: chain has no transitions")
	}

	// Build P = I + Q/Λ row by row.
	for i, s := range states {
		ts.rowStart[i] = int32(len(ts.colIdx))
		// Self-retention probability.
		stay := 1 - outRates[i]/ts.lambda
		if stay > 0 {
			ts.colIdx = append(ts.colIdx, int32(i))
			ts.prob = append(ts.prob, stay)
		}
		for _, tr := range g(s) {
			j := index[tr.Next]
			if j == i || tr.Rate == 0 {
				continue
			}
			ts.colIdx = append(ts.colIdx, int32(j))
			ts.prob = append(ts.prob, tr.Rate/ts.lambda)
		}
	}
	ts.rowStart[n] = int32(len(ts.colIdx))

	ts.dist[index[init]] = 1
	return ts, nil
}

// step applies one multiplication dist ← dist·P.
func (ts *TransientSolver[S]) step() {
	for i := range ts.scratch {
		ts.scratch[i] = 0
	}
	for i := range ts.dist {
		d := ts.dist[i]
		if d == 0 {
			continue
		}
		for k := ts.rowStart[i]; k < ts.rowStart[i+1]; k++ {
			ts.scratch[ts.colIdx[k]] += d * ts.prob[k]
		}
	}
	ts.dist, ts.scratch = ts.scratch, ts.dist
}

// Advance evolves the distribution by dt seconds.
func (ts *TransientSolver[S]) Advance(dt float64) {
	if dt <= 0 {
		return
	}
	a := ts.lambda * dt
	// Poisson(a) weights over matrix powers, truncated at 1e-12 tail mass.
	out := ts.out
	weight := math.Exp(-a)
	cum := weight
	for i, v := range ts.dist {
		out[i] = weight * v
	}
	for k := 1; cum < 1-1e-12; k++ {
		ts.step()
		weight *= a / float64(k)
		cum += weight
		for i, v := range ts.dist {
			out[i] += weight * v
		}
		if k > int(a)+200 && weight < 1e-300 {
			break // numerically exhausted
		}
	}
	copy(ts.dist, out)
	// Renormalize the truncation residue.
	var sum float64
	for _, v := range ts.dist {
		sum += v
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range ts.dist {
			ts.dist[i] *= inv
		}
	}
}

// Prob returns the probability mass on states satisfying pred.
func (ts *TransientSolver[S]) Prob(pred func(S) bool) float64 {
	var p float64
	for i, s := range ts.states {
		if pred(s) {
			p += ts.dist[i]
		}
	}
	return p
}

// Dist returns the current distribution as a map (allocates; for tests).
func (ts *TransientSolver[S]) Dist() map[S]float64 {
	out := make(map[S]float64, len(ts.states))
	for i, s := range ts.states {
		if ts.dist[i] > 0 {
			out[s] = ts.dist[i]
		}
	}
	return out
}

// SetDist replaces the current distribution (states not in the map get 0;
// unknown states are an error). Used to hand a distribution from one
// generator's solver to another when the dynamics switch regimes (e.g.
// playback start in the streaming model).
func (ts *TransientSolver[S]) SetDist(d map[S]float64) error {
	for i := range ts.dist {
		ts.dist[i] = 0
	}
	for s, p := range d {
		i, ok := ts.index[s]
		if !ok {
			return fmt.Errorf("markov: state %v not in this solver's space", s)
		}
		ts.dist[i] = p
	}
	return nil
}
