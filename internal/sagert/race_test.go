//go:build race

package sagert

// allocSlack scales the byte ceilings of the allocation tests: the race
// detector's bookkeeping adds 7–12 % to a run's bytes.
const allocSlack = 1.15
