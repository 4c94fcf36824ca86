// Package use is the lockorder corpus: it acquires two locks in both
// orders (a cycle that closes only through LockBoard's summary), sends
// on channels under a held lock both directly and through Notify, and
// calls the solver under a lock.
package use

import (
	"lo/internal/sat"
	"sync"
)

type Board struct{ Mu sync.Mutex }

type Reg struct{ Mu sync.Mutex }

type server struct {
	mu sync.Mutex
	ch chan int
}

// Bad holds Reg.Mu while LockBoard acquires Board.Mu — the reverse of
// WithBoth's order. The acquisition is visible only through LockBoard's
// summary.
func Bad(r *Reg, b *Board) {
	r.Mu.Lock()
	LockBoard(b) // want `lock order cycle`
	r.Mu.Unlock()
}

func (s *server) Publish() {
	s.mu.Lock()
	Notify(s.ch) // want `performs a channel send .* while holding`
	s.ch <- 2    // want `channel send while holding`
	s.mu.Unlock()
}

func (s *server) Run(solver *sat.Solver) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return solver.SolveAssuming(nil) // want `SolveAssuming called while holding`
}

// Good holds nothing while delegating to the canonical-order helper:
// no findings.
func Good(b *Board, r *Reg) {
	WithBoth(b, r)
}

// WithBoth acquires Board.Mu then Reg.Mu — the canonical order. The
// cycle with Bad is reported once, at Bad's earlier closing edge.
func WithBoth(b *Board, r *Reg) {
	b.Mu.Lock()
	r.Mu.Lock()
	r.Mu.Unlock()
	b.Mu.Unlock()
}

// LockBoard's acquisition is visible to callers via its summary.
func LockBoard(b *Board) {
	b.Mu.Lock()
	b.Mu.Unlock()
}

// Notify performs a channel send; calling it under a held lock is the
// finding, reported at the caller via this summary.
func Notify(ch chan int) {
	ch <- 1
}
