//go:build !race

package serve

// allocSlack scales the byte ceilings of the allocation tests (see
// race_test.go).
const allocSlack = 1.0
