package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// at builds a span over [a, b) milliseconds from a fixed origin.
func at(id, parent int, name string, a, b int) span {
	origin := time.Unix(1000, 0)
	return span{ID: id, Parent: parent, Name: name, Lane: laneMain,
		Start: origin.Add(time.Duration(a) * time.Millisecond), End: origin.Add(time.Duration(b) * time.Millisecond)}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		at(0, noParent, spCheck, 0, 100),
		at(1, 0, spDepth, 10, 60),
		at(2, 1, spSatLoad, 10, 20),
		at(3, 1, spSatSolve, 20, 50),
		// Two concurrent children that overlap each other (40..70 and
		// 60..90) cover 50 ms of the parent, not 60.
		at(4, 0, spPoolDepth, 40, 70),
		at(5, 0, spPoolDepth, 60, 90),
		// A child reported from another clock may stick out of its parent;
		// only the part inside counts.
		at(6, 4, spSatSolve, 35, 50),
	}
	want := []time.Duration{
		// 100 minus the union of 10..60 and 40..90.
		20 * time.Millisecond,
		10 * time.Millisecond, // 50 - 10 - 30
		10 * time.Millisecond,
		30 * time.Millisecond,
		20 * time.Millisecond, // 30 - (40..50)
		30 * time.Millisecond,
		15 * time.Millisecond,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	by := selfByName(spans)
	if by[spSatSolve] != 45*time.Millisecond || by[spPoolDepth] != 50*time.Millisecond {
		t.Errorf("selfByName = %v", by)
	}
	if layerOf(spSatSolve) != "sat" || layerOf(spCheck) != "engine" {
		t.Error("layerOf does not split at the dot")
	}
}

func TestRecorderAndChromeTrace(t *testing.T) {
	var r recorder
	root := r.begin(noParent, spCheck, 7, laneMain)
	child := r.begin(root, spSatSolve, 7, "step")
	r.end(child)
	r.add(root, spSatLoad, 7, laneMain, time.Now(), time.Millisecond)
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 3 || spans[1].Parent != root || spans[2].End.Sub(spans[2].Start) != time.Millisecond {
		t.Fatalf("recorded %+v", spans)
	}

	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	complete, lanes := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			if e.Args["check"] != float64(7) {
				t.Errorf("event %s: check %v, want 7", e.Name, e.Args["check"])
			}
		case "M":
			lanes++
		}
	}
	if complete != 3 || lanes != 2 {
		t.Errorf("%d complete events on %d lanes, want 3 on 2", complete, lanes)
	}
}
