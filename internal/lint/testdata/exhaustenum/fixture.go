package fixture

import "fmt"

type state int

const (
	stateA state = iota
	stateB
	stateC
)

// untyped constants never form an enum.
const loose = 7

func describe(s state) string {
	switch s { // exhaustive: no default needed
	case stateA:
		return "a"
	case stateB:
		return "b"
	case stateC:
		return "c"
	}
	return "?"
}

func partial(s state) string {
	switch s { // want "not exhaustive"
	case stateA:
		return "a"
	}
	return "?"
}

func lazyDefault(s state) string {
	switch s { // want "uncommented default"
	case stateA:
		return "a"
	default:
		return fmt.Sprint(int(s))
	}
}

func explained(s state) string {
	switch s {
	case stateA:
		return "a"
	default:
		// Remaining states render numerically; new members need no case.
		return fmt.Sprint(int(s))
	}
}

func opaque(s state, other state) string {
	switch s { // a case the analyzer cannot resolve: stay quiet
	case other:
		return "other"
	}
	return "?"
}

func waived(s state) string {
	switch s { // nolint:exhaustenum fixture waiver
	case stateB:
		return "b"
	}
	return "?"
}

// current is package-level: its type comes from the declaration, not
// from anything in the switching function.
var current state

func describeCurrent() string {
	switch current { // want "not exhaustive: missing stateB, stateC"
	case stateA:
		return "a"
	}
	return "?"
}

func nonEnum(n int) string {
	switch n { // int is not an enum type
	case 1:
		return "one"
	}
	return "?"
}
