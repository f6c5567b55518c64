package unused

import "testing"

// A test is not a caller: the loader reads no _test.go file, so OnlyTested
// is still reported.
func TestOnlyTested(t *testing.T) { OnlyTested() }
