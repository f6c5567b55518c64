// Package unused is the analysistest corpus for the unused analyzer. Its
// program is this package and the unusedcmd command, which imports it: the
// roots are unusedcmd's main, the init function below and every
// package-level var initializer.
package unused

import "fmt"

func init() {
	live()
	fmt.Println(T{}, B, Map(Box[int]{}.Get()))
}

// --- positive cases ---

func Exported() {} // want `Exported is unused`

// OnlyTested is called from unused_test.go, which is not part of any binary.
func OnlyTested() {} // want `OnlyTested is unused`

// T is reached from init; Lonely satisfies no interface in the program.
type T struct{}

func (T) Lonely() {} // want `T.Lonely is unused`

// Dead is reported once, with its methods.
type Dead struct{} // want `Dead is unused`

func (Dead) Method() {}

func build() []int { return []int{1} }

// table is unused, but its initializer runs: build stays.
var table = build() // want `table is unused`

const offset = 10

// Only B is reached; its implicit expression, iota + offset, keeps offset.
const (
	A = iota + offset // want `A is unused`
	B
)

// --- negative cases ---

// String is called by nobody in the program, but it is in fmt.Stringer's
// method set, and T is reached.
func (T) String() string { return "T" }

// I and U are reached only from a blank var's declaration; Do from I.
type I interface{ Do() }

type U struct{}

func (*U) Do() {}

var _ I = (*U)(nil)

// Get is reached through an instance of Box, mapped to its origin.
type Box[E any] struct{ v E }

func (b Box[E]) Get() E { return b.v }

func Map[E any](x E) E { return x }

// FromMain is reached from unusedcmd's main.
func FromMain() {}

// Oracle is what the tests compare against; the directive covers it, and what
// it references is reached from it.
//
//lint:testsupport the oracle of the corpus's tests
func Oracle() int { return helper() }

func helper() int { return 1 }

// live is reached from init, so its directive suppresses nothing: stale.
//
//lint:testsupport once the oracle of tests that now call something else
func live() {}

// Reasonless is covered, but its directive names no tests.
//
//lint:testsupport
func Reasonless() {}
