package engine

import (
	"reflect"
	"strings"

	"repro/internal/sat"
)

// SolverTables returns, for each of s's tables whose size follows the
// formula's — the ones Load sizes and sat.Solver.Grow sizes ahead — where
// it keeps its elements, 0 for a table never allocated: what a test watches
// to count how often storage moves. It reads unexported fields by
// reflection, which is all a test outside package sat can do, so s must be
// at rest.
func SolverTables(s *sat.Solver) map[string]uintptr {
	out := make(map[string]uintptr)
	for _, name := range []string{
		"ca.pages", "watches.lists", "watches.pages", "vals", "reason", "level", "trail",
		"chaScore", "newCount", "seen", "heap.heap", "heap.pos",
	} {
		v := reflect.ValueOf(s).Elem()
		for _, field := range strings.Split(name, ".") {
			if v.Kind() == reflect.Pointer {
				if v.IsNil() {
					break
				}
				v = v.Elem()
			}
			v = v.FieldByName(field)
		}
		out[name] = 0
		if v.Kind() == reflect.Slice {
			out[name] = v.Pointer()
		}
	}
	return out
}
