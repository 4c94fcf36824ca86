package leakcheck

import (
	"strings"
	"sync"
	"testing"
)

// TestReportsUnjoinedGoroutines: a goroutine started after the snapshot
// and parked when the check runs is reported with its stack, by the count
// and by the stacks alike; so is one started and not yet run.
func TestReportsUnjoinedGoroutines(t *testing.T) {
	for _, afterJoin := range []bool{false, true} {
		snap := Take()
		release := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
		}()
		check := snap.Check
		if afterJoin {
			check = snap.CheckAfterJoin
		}
		err := check()
		close(release)
		wg.Wait()
		if err == nil {
			t.Fatalf("afterJoin=%v: a goroutine parked on a channel receive passed the check", afterJoin)
		}
		if !strings.Contains(err.Error(), "TestReportsUnjoinedGoroutines") {
			t.Errorf("afterJoin=%v: the report does not show the goroutine's stack:\n%v", afterJoin, err)
		}
	}
}

// TestPassesJoinedGoroutines: goroutines joined through a WaitGroup and
// through a closed channel pass, as do goroutines alive before the
// snapshot, however they end.
func TestPassesJoinedGoroutines(t *testing.T) {
	before := make(chan struct{})
	go func() { <-before }()
	defer close(before)

	snap := Take()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
	done := make(chan struct{})
	go func() {
		defer close(done)
	}()
	<-done
	if err := snap.CheckAfterJoin(); err != nil {
		t.Fatal(err)
	}
}
