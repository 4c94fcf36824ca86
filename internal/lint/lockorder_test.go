package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestLockOrder(t *testing.T) {
	linttest.Run(t, ".", []*lint.Analyzer{lint.LockOrder}, "lo/use")
}
