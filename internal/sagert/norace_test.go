//go:build !race

package sagert

// allocSlack scales the byte ceilings of the allocation tests (see
// race_test.go).
const allocSlack = 1.0
