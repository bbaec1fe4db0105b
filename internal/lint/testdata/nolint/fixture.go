// Fixture for the nolint escape hatch, run under detsim: the three
// supported suppression positions stay quiet, and a nolint naming
// another analyzer suppresses nothing.
package fixture

import "time"

func trailing() {
	_ = time.Now() // nolint:detsim fixture: suppressed on the same line
}

func above() {
	// nolint:detsim fixture: this reason spans
	// a second comment line
	_ = time.Now()
}

// docSuppressed reads the clock for a log line.
// nolint:detsim fixture: the whole function is logging
func docSuppressed() {
	_ = time.Now()
}

func wrongAnalyzer() {
	_ = time.Now() // nolint:lockguard wrong analyzer // want "time.Now in deterministic package"
}
