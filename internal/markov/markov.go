// Package markov provides generic continuous-time Markov chain machinery:
// an exact stationary-distribution solver and an exact transient solver
// (uniformization, transient.go), both driven by a user-supplied
// transition generator.
//
// This is the reproduction's stand-in for the TANGRAM-II modeling tool the
// paper used to solve its DMP-streaming chain. The stationary solver
// enumerates the reachable state space and applies Gauss-Seidel to the
// global balance equations; it is used directly for per-flow TCP chains (a
// few thousand states) and, on truncated instances, to cross-validate the
// Monte-Carlo estimators that handle the paper's large parameter sweeps.
// Those sample the composed chain's jumps in dmpmodel, not here.
package markov

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Transition is one outgoing CTMC transition. Tag carries a user label (for
// the TCP chains: the number of packets delivered by the transition).
type Transition[S comparable] struct {
	Rate float64
	Tag  int32
	Next S
}

// Generator produces the outgoing transitions of a state. It must be
// deterministic: repeated calls for the same state must return the same set.
type Generator[S comparable] func(S) []Transition[S]

// ErrStateSpaceTooLarge is returned when reachability exceeds the caller's cap.
var ErrStateSpaceTooLarge = errors.New("markov: reachable state space exceeds limit")

// Enumerate performs breadth-first reachability from init, returning the
// state list (index order = discovery order) and an index map.
func Enumerate[S comparable](g Generator[S], init S, maxStates int) ([]S, map[S]int, error) {
	index := map[S]int{init: 0}
	states := []S{init}
	for head := 0; head < len(states); head++ {
		for _, tr := range g(states[head]) {
			if tr.Rate < 0 {
				return nil, nil, fmt.Errorf("markov: negative rate %v from %v", tr.Rate, states[head])
			}
			if tr.Rate == 0 {
				continue
			}
			if _, ok := index[tr.Next]; !ok {
				if len(states) >= maxStates {
					return nil, nil, ErrStateSpaceTooLarge
				}
				index[tr.Next] = len(states)
				states = append(states, tr.Next)
			}
		}
	}
	return states, index, nil
}

// Stationary computes the stationary distribution of the CTMC reachable from
// init. It solves the global balance equations πQ = 0, Σπ = 1 by Gauss-Seidel
// sweeps over the reversed transition structure. The chain must be ergodic on
// its reachable class (the solver reports failure to converge otherwise).
func Stationary[S comparable](g Generator[S], init S, maxStates int, tol float64, maxSweeps int) (map[S]float64, error) {
	states, index, err := Enumerate(g, init, maxStates)
	if err != nil {
		return nil, err
	}
	n := len(states)

	// Flatten transitions; build incoming adjacency.
	type inEdge struct {
		from int32
		rate float64
	}
	outRate := make([]float64, n)
	incoming := make([][]inEdge, n)
	for i, s := range states {
		for _, tr := range g(s) {
			if tr.Rate == 0 {
				continue
			}
			j := index[tr.Next]
			if j == i {
				continue // self-loops cancel in balance equations
			}
			outRate[i] += tr.Rate
			incoming[j] = append(incoming[j], inEdge{from: int32(i), rate: tr.Rate})
		}
	}
	for i := range outRate {
		if outRate[i] == 0 {
			return nil, fmt.Errorf("markov: absorbing state %v (chain not ergodic)", states[i])
		}
	}

	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var delta, norm float64
		for j := 0; j < n; j++ {
			var inflow float64
			for _, e := range incoming[j] {
				inflow += pi[e.from] * e.rate
			}
			next := inflow / outRate[j]
			delta += math.Abs(next - pi[j])
			pi[j] = next
			norm += next
		}
		// Normalize each sweep to keep the iteration numerically anchored.
		if norm <= 0 || math.IsNaN(norm) || math.IsInf(norm, 0) {
			return nil, errors.New("markov: Gauss-Seidel diverged")
		}
		inv := 1 / norm
		for j := range pi {
			pi[j] *= inv
		}
		if delta*inv < tol {
			out := make(map[S]float64, n)
			for i, s := range states {
				out[s] = pi[i]
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("markov: no convergence in %d sweeps", maxSweeps)
}

// TagRate returns the long-run rate at which tagged units are produced:
// Σ_s π(s) Σ_t rate(t)·tag(t). For the TCP flow chains this is the achievable
// throughput σ in packets per second. The terms are summed in sorted order
// so the float result is bit-identical regardless of map iteration order.
func TagRate[S comparable](g Generator[S], pi map[S]float64) float64 {
	var terms []float64
	// nolint:detsim terms are sorted below before the reduction, so the
	// result is independent of map iteration order.
	for s, p := range pi {
		for _, tr := range g(s) {
			terms = append(terms, p*tr.Rate*float64(tr.Tag))
		}
	}
	return sortedSum(terms)
}

// sortedSum reduces terms deterministically: float addition is not
// associative, so summing in map-iteration order would make results
// differ in the last ulps from run to run.
func sortedSum(terms []float64) float64 {
	sort.Float64s(terms)
	var total float64
	for _, v := range terms {
		total += v
	}
	return total
}
