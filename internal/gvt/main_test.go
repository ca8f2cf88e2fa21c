package gvt

import (
	"testing"

	"decaf/internal/testutil"
)

// TestMain fails the package when a test leaks goroutines: a site runs
// none, so any survivor is the network's.
func TestMain(m *testing.M) { testutil.VerifyTestMain(m) }
