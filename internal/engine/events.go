package engine

import (
	"time"

	"repro/internal/sat"
)

// Query identifies which instance sequence of a session an event (or a
// clause-bus payload) concerns.
type Query string

// Queries.
const (
	// QueryBMC is the single instance sequence of the BMC engine.
	QueryBMC Query = "bmc"
	// QueryBase is the k-induction base-case sequence (counter-examples
	// of length exactly k).
	QueryBase Query = "base"
	// QueryStep is the k-induction step-case sequence (simple-path
	// induction steps).
	QueryStep Query = "step"
)

// EventKind classifies progress events.
type EventKind int

// Event kinds.
const (
	// DepthStarted fires before a depth's instance is solved (or raced).
	// The k-induction engines emit one per query: base and step together
	// when the two queries race in parallel, the step one only once the
	// base verdict lets it run in the sequential prover.
	DepthStarted EventKind = iota
	// DepthFinished fires once a depth's instance has come to rest, with
	// the depth's statistics in Event.Depth. For the k-induction engine
	// it fires once per query (base, then step) per depth; a step query
	// whose race was cancelled because the base verdict made it moot
	// reports its winner empty and its status undecided.
	DepthFinished
	// RaceFinished fires after a depth's race has fully joined (portfolio
	// configurations and incremental k-induction), before the depth's
	// DepthFinished, with one row per racer in Event.Racers — the
	// per-strategy view DepthFinished collapses into its winner column.
	RaceFinished
	// ExchangeFlushed fires after a depth-boundary clause-bus round moved
	// (or dropped) any clauses (warm pools with the bus enabled), with
	// per-strategy traffic in Event.Exchange. Idle rounds emit nothing.
	ExchangeFlushed
)

// RacerRow is one racer's outcome in a RaceFinished event.
type RacerRow struct {
	Name      string
	Status    sat.Status
	Conflicts int64
	// Wall is the attempt's solve time; Wait how long it queued for a
	// worker slot before starting.
	Wall time.Duration
	Wait time.Duration
	// Winner marks the racer whose verdict was kept; Canceled racers were
	// stopped by the win; Skipped ones never started.
	Winner   bool
	Canceled bool
	Skipped  bool
}

// ExchangeRow is one strategy's clause-bus traffic in an ExchangeFlushed
// event: clauses its solver exported, accepted from others, and rejected
// as duplicates.
type ExchangeRow struct {
	Strategy     string
	Exported     int64
	Imported     int64
	DedupDropped int64
}

// Event is one progress notification of a running check. Events are
// delivered synchronously from the depth loop's goroutine in depth
// order, so consumers need no locking; a slow consumer slows the check.
type Event struct {
	Kind  EventKind
	Query Query
	// K is the depth the event concerns.
	K int
	// Depth carries the finished depth's statistics (DepthFinished only).
	Depth DepthStats
	// Racers carries the per-racer rows of a joined race (RaceFinished
	// only).
	Racers []RacerRow
	// Exchange carries the per-strategy clause-bus rows of a flushed
	// depth boundary (ExchangeFlushed only).
	Exchange []ExchangeRow
}
