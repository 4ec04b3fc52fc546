// Package archtest holds the architecture gates: go test checks, over the
// tree's own source (go/parser and go/types, stdlib only), of structural
// rules a behavioural test cannot see — where a loop may live, which calls
// a layer may make. A rename cannot slip past them the way it slips past a
// regular expression: a gate that no longer finds what it guards fails.
// The package has no code of its own; its tests are the gates.
package archtest
