// Package leakcheck tells whether a call joined every goroutine it
// started. It reads the goroutines the moment the call returns, with no
// grace period, and lists the ones started since that are not past their
// join.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Snapshot is the goroutines alive just before a call.
type Snapshot struct {
	n    int             // their count
	live map[string]bool // their IDs
	buf  []byte          // room for the stack dump after the call, made ahead
}

// Take reads the goroutines alive now. Call it right before the call
// under test.
func Take() Snapshot {
	buf := make([]byte, 64<<10)
	live := map[string]bool{}
	for id := range stacks(&buf) {
		live[id] = true
	}
	return Snapshot{n: runtime.NumGoroutine(), live: live, buf: make([]byte, 4*len(buf))}
}

// Check reports the goroutines that outlived the call, or nil. Call it
// the moment the call returns: it counts the goroutines first, then reads
// every stack into room made ahead.
//
// A goroutine started since the snapshot counts until it is past its
// join: inside sync.WaitGroup.Done, at its own function's closing brace
// (returning, its deferred signal sent), or on the runtime's exit path.
// Past that it has nothing left to do and does not count, however long
// the scheduler leaves it there: on a loaded machine a goroutine
// preempted on its way out can wait in the run queue for milliseconds.
// Any other fails the check: one still waiting or running is listed with
// its stack, and one in the count beyond the snapshot's that is gone from
// the stacks was alive when the call returned — a goroutine woken as the
// call ends is often gone within the microseconds the stacks take.
// Goroutine IDs are never reused, so a goroutine alive before (the
// previous test's runner, winding down) that ends meanwhile cannot even
// the count and hide one that is still running.
func (s Snapshot) Check() error {
	return s.check(runtime.NumGoroutine())
}

// CheckAfterJoin is Check without the count, for a call whose last act is
// a join: the goroutine it joined may still be on its way out when the
// call returns and gone by the time the stacks are read, which the count
// cannot tell from a goroutine that was never joined. It reports every
// goroutine started since the snapshot that is still waiting or running.
func (s Snapshot) CheckAfterJoin() error {
	return s.check(-1)
}

// check reads the stacks and reports the goroutines started since the
// snapshot that are not past their join, and, when n >= 0, a count of n
// at the call's return above the snapshot's by more than those past it.
func (s Snapshot) check(n int) error {
	past := 0
	var left []string
	for id, stack := range stacks(&s.buf) {
		switch {
		case s.live[id]:
		case joined(stack):
			past++
		default:
			left = append(left, stack)
		}
	}
	if n-past <= s.n && len(left) == 0 {
		return nil
	}
	return fmt.Errorf("%d goroutines before the call, %d when it returned (%d of them past their join); %d started since not past it:\n\n%s",
		s.n, n, past, len(left), strings.Join(left, "\n\n"))
}

// stacks returns the stack of every live goroutine, keyed by goroutine ID,
// dumped into *buf, which it grows when the dump does not fit.
func stacks(buf *[]byte) map[string]string {
	for {
		n := runtime.Stack(*buf, true)
		if n < len(*buf) {
			all := map[string]string{}
			for _, g := range strings.Split(string((*buf)[:n]), "\n\n") {
				if rest, ok := strings.CutPrefix(g, "goroutine "); ok {
					id, _, _ := strings.Cut(rest, " ")
					all[id] = g
				}
			}
			return all
		}
		*buf = make([]byte, 2*len(*buf))
	}
}

// joined reports whether a goroutine's stack shows it past its join. The
// dump hides runtime frames, so a goroutine on the exit path shows none
// but the runtime's, and one in its own function shows that function
// alone: at a wait it is parked, or runnable once woken, at the line of
// the wait; returning, it is runnable at its closing brace.
func joined(stack string) bool {
	lines := strings.Split(stack, "\n")
	status, _, _ := strings.Cut(lines[0][strings.IndexByte(lines[0], '[')+1:], "]")
	status, _, _ = strings.Cut(status, ",")
	var frames []string // each frame's "file:line +offset" outside the runtime
	for i := 1; i+1 < len(lines) && !strings.HasPrefix(lines[i], "created by "); i += 2 {
		if strings.HasPrefix(lines[i], "sync.(*WaitGroup).Done(") {
			return true
		}
		if !strings.HasPrefix(lines[i], "runtime.") {
			frames = append(frames, strings.TrimSpace(lines[i+1]))
		}
	}
	switch {
	case status != "runnable":
		return false
	case len(frames) == 0:
		return true
	case len(frames) == 1:
		return atClosingBrace(frames[0])
	}
	return false
}

// atClosingBrace reports whether a frame's "file:line +offset" is a
// closing brace in the source, past the function's entry. A function
// written on one line has none of its own, and is never judged returning.
func atClosingBrace(frame string) bool {
	at, _, started := strings.Cut(frame, " +")
	file, line, _ := strings.Cut(at, ":")
	n, err := strconv.Atoi(line)
	if !started || err != nil || n < 1 {
		return false
	}
	src, err := os.ReadFile(file)
	if err != nil {
		return false
	}
	text := strings.Split(string(src), "\n")
	return n <= len(text) && strings.HasPrefix(strings.TrimSpace(text[n-1]), "}")
}
