package engine

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/portfolio"
)

// TestConfigValidate enumerates the engine×ordering×incremental
// matrix: every rejected combination errors out with a message naming
// the offending knob, and every supported combination passes.
func TestConfigValidate(t *testing.T) {
	mk := func(opts ...Option) Config {
		cfg := defaultConfig()
		for _, o := range opts {
			o(&cfg)
		}
		return cfg
	}
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring of the error, "" = must pass
	}{
		{"default", mk(), ""},
		{"bmc vsids", mk(WithOrdering(core.OrderVSIDS)), ""},
		{"bmc timeaxis", mk(WithOrdering(core.OrderTimeAxis)), ""},
		{"bmc incremental", mk(WithIncremental()), ""},
		{"bmc portfolio", mk(WithPortfolio(nil, 0)), ""},
		{"bmc portfolio jobs", mk(WithPortfolio(nil, 4)), ""},
		{"bmc warm portfolio", mk(WithPortfolio(nil, 0), WithIncremental()), ""},
		{"kind sequential", mk(WithEngine(KInduction)), ""},
		{"kind incremental single order", mk(WithEngine(KInduction), WithIncremental()), ""},
		{"kind incremental timeaxis", mk(WithEngine(KInduction), WithIncremental(), WithOrdering(core.OrderTimeAxis)), ""},
		{"kind portfolio", mk(WithEngine(KInduction), WithPortfolio(nil, 0)), ""},
		{"kind warm portfolio", mk(WithEngine(KInduction), WithPortfolio(nil, 2), WithIncremental()), ""},
		{"kind sequential timeaxis", mk(WithEngine(KInduction), WithOrdering(core.OrderTimeAxis)), ""},
		{"switch divisor 0 is the paper's", mk(WithSwitchDivisor(0)), ""},
		{"switch divisor", mk(WithSwitchDivisor(16)), ""},
		{"every score mode", mk(WithScoreMode(core.ExpDecay)), ""},

		{"unknown engine", mk(WithEngine(Kind(42))), "unknown engine kind"},
		{"negative depth", mk(WithBudgets(-1, 0)), "max depth"},
		{"negative conflicts", mk(WithBudgets(5, -1)), "conflict budget"},
		{"negative jobs", mk(WithPortfolio(nil, -1)), "jobs must be >= 0"},
		{"jobs without portfolio", mk(func(c *Config) { c.Jobs = 2 }), "jobs require a portfolio"},
		{"strategies without portfolio", mk(func(c *Config) { c.Strategies = portfolio.DefaultSet() }),
			"strategy set requires a portfolio"},
		{"unknown ordering", mk(WithOrdering(core.Strategy(7))), "unknown ordering"},
		{"negative switch divisor", mk(WithSwitchDivisor(-1)), "switch divisor"},
		{"negative switch divisor on a warm portfolio", mk(WithPortfolio(nil, 0), WithIncremental(), WithSwitchDivisor(-8)),
			"switch divisor"},
		{"unknown score mode", mk(WithScoreMode(core.ScoreMode(4))), "unknown score mode"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error: %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: expected an error mentioning %q, got none", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestNewValidates: New applies the options and runs Validate, so an
// invalid combination never produces a Session.
func TestNewValidates(t *testing.T) {
	if _, err := New(nil, 0, WithEngine(Kind(9))); err == nil {
		t.Fatal("New accepted an unknown engine kind")
	}
}
