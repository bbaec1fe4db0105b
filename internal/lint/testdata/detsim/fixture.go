// Fixture for the detsim analyzer: true positives carry // want
// comments, the rest must stay quiet.
package fixture

import (
	"math/rand"
	"time"
)

func wallClock() int64 {
	return time.Now().UnixNano() // want "time.Now in deterministic package"
}

func sinceStart(t0 time.Time) time.Duration {
	return time.Since(t0) // want "time.Since in deterministic package"
}

func globalRand() int {
	return rand.Intn(10) // want "global math/rand.Intn"
}

func unseeded() *rand.Rand {
	src := rand.NewSource(1)
	_ = src
	return rand.New(nil) // want "rand.New without an explicit rand.NewSource"
}

func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // ok: explicit seed
}

func mapAccumulate(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want "order-dependent result"
		sum += v
	}
	return sum
}

func mapAppend(m map[string]float64) []float64 {
	var out []float64
	for _, v := range m { // want "order-dependent result"
		out = append(out, v)
	}
	return out
}

func mapKeyedWrite(m map[int]float64, out []float64) {
	for k, v := range m { // ok: keyed writes commute
		out[k] = v
	}
}

func mapSuppressed(m map[string]float64) float64 {
	var sum float64
	// nolint:detsim fixture: reduction verified order-independent by hand
	for _, v := range m {
		sum += v
	}
	return sum
}

// weights is package-level: the type checker resolves it where a
// function-local view could not.
var weights = map[string]float64{}

func packageMapSum() float64 {
	var sum float64
	for _, w := range weights { // want "iteration over map weights"
		sum += w
	}
	return sum
}

func sliceAccumulate(xs []float64) float64 {
	var sum float64
	for _, v := range xs { // ok: slices iterate in order
		sum += v
	}
	return sum
}
