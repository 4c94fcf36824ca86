// Package use exercises ctxflow: fresh contexts below a held ctx, and
// ctx-less calls into the solver layer.
package use

import (
	"context"

	"c/internal/sat"
)

func FreshBelowHeld(ctx context.Context) {
	_ = ctx
	c := context.Background() // want `context\.Background inside a function that already holds a ctx`
	_ = c
	c2 := context.TODO() // want `context\.TODO inside a function that already holds a ctx`
	_ = c2
}

func UnusedCtx(ctx context.Context, n int) int { // want `ctx parameter is never used but the body calls into the solver layer`
	return sat.Solve(n, sat.Options{})
}

func UsedCtx(ctx context.Context, n int) int {
	opts := sat.Options{Stop: ctx.Done()}
	return sat.Solve(n, opts)
}
