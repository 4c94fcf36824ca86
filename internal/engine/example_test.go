package engine_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/circuit"
	"repro/internal/engine"
)

// Example model-checks a small counter circuit through the session API:
// one entrypoint covers every engine×ordering×incremental
// configuration, and the context carries cancellation and deadlines into
// every solver.
func Example() {
	// A 4-bit counter that saturates at 9; the property "counter never
	// reaches 9" is falsified by a 9-step trace.
	c := circuit.New("example")
	cnt := c.LatchWord("cnt", 4, 0)
	inc, _ := c.IncWord(cnt)
	at9 := c.EqConst(cnt, 9)
	c.SetNextWord(cnt, c.MuxWord(at9, cnt, inc))
	c.AddProperty("never_9", at9)

	sess, err := engine.New(c, 0,
		engine.WithPortfolio(nil, 0), // race all four orderings per depth
		engine.WithIncremental(),     // persistent solvers across depths
		engine.WithBudgets(12, 0))
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Check(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v at depth %d (warm portfolio: %v)\n", res.Verdict, res.K, res.Warm)
	// Output: falsified at depth 9 (warm portfolio: true)
}
