//go:build race

package tfim

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates and so defeats allocation counting.
const raceEnabled = true
