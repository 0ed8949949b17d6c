//go:build !race

package telemetry

// RaceEnabled reports whether the binary was built with the race
// detector. Exact-allocation assertions (the steady-state budgets) must
// skip when it is true: the race runtime
// allocates shadow state on instrumented operations, which perturbs every
// process-wide allocation counter.
const RaceEnabled = false
