//go:build race

package serve

// allocSlack scales the byte ceilings of the allocation tests: the race
// detector's bookkeeping adds 7–12 % to a request's bytes.
const allocSlack = 1.15
