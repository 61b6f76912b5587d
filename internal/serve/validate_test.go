package serve

import (
	"errors"
	"math"
	"testing"
)

// Satellite regression suite for Config.Validate: every degenerate
// field is rejected with a typed *ConfigError naming the field, and the
// zero-selects-default convention means a zero value is never rejected.

func TestValidateRejectsDegenerateConfigs(t *testing.T) {
	mod := func(f func(*Config)) Config {
		cfg := quickConfig()
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name      string
		cfg       Config
		wantField string
	}{
		{"negative blades", mod(func(c *Config) { c.Blades = -1 }), "Blades"},
		{"negative queue", mod(func(c *Config) { c.MaxQueue = -2 }), "MaxQueue"},
		{"negative batch", mod(func(c *Config) { c.MaxBatch = -1 }), "MaxBatch"},
		{"negative requests", mod(func(c *Config) { c.Requests = -5 }), "Requests"},
		{"negative pools", mod(func(c *Config) { c.Pools = -1 }), "Pools"},
		{"negative retry budget", mod(func(c *Config) { c.RetryBudget = -1 }), "RetryBudget"},
		{"negative retry backoff", mod(func(c *Config) { c.RetryBackoff = -1 }), "RetryBackoff"},
		{"negative parallel", mod(func(c *Config) { c.Parallel = -4 }), "Parallel"},
		{"negative shards", mod(func(c *Config) { c.Shards = -8 }), "Shards"},
		{"NaN rate", mod(func(c *Config) { c.Rate = math.NaN() }), "Rate"},
		{"infinite rate", mod(func(c *Config) { c.Rate = math.Inf(1) }), "Rate"},
		{"negative rate", mod(func(c *Config) { c.Rate = -0.5 }), "Rate"},
		{"NaN offered rate", mod(func(c *Config) { c.OfferedRPS = math.NaN() }), "OfferedRPS"},
		{"negative offered rate", mod(func(c *Config) { c.OfferedRPS = -1 }), "OfferedRPS"},
		{"NaN burst", mod(func(c *Config) { c.Burst = math.NaN() }), "Burst"},
		{"sub-unity burst", mod(func(c *Config) { c.Burst = 0.5 }), "Burst"},
		{"negative burst", mod(func(c *Config) { c.Burst = -2 }), "Burst"},
		{"tall fraction above one", mod(func(c *Config) { c.TallFrac = 1.5 }), "TallFrac"},
		{"negative tall fraction", mod(func(c *Config) { c.TallFrac = -0.1 }), "TallFrac"},
		{"NaN tall fraction", mod(func(c *Config) { c.TallFrac = math.NaN() }), "TallFrac"},
		{"diurnal amplitude above one", mod(func(c *Config) { c.Load = &RateModel{DiurnalAmp: 1.5} }), "Load.DiurnalAmp"},
		{"negative flash count", mod(func(c *Config) { c.Load = &RateModel{FlashCount: -1} }), "Load.FlashCount"},
		{"infinite flash factor", mod(func(c *Config) { c.Load = &RateModel{FlashFactor: math.Inf(1)} }), "Load.FlashFactor"},
		{"flash fraction above one", mod(func(c *Config) { c.Load = &RateModel{FlashFrac: 2} }), "Load.FlashFrac"},
		{"negative diurnal period", mod(func(c *Config) { c.Load = &RateModel{Period: -1} }), "Load.Period"},
		{"negative autoscale interval", mod(func(c *Config) { c.Autoscale = &Autoscale{Interval: -1} }), "Autoscale.Interval"},
		{"negative autoscale window", mod(func(c *Config) { c.Autoscale = &Autoscale{Window: -1} }), "Autoscale.Window"},
		{"NaN high watermark", mod(func(c *Config) { c.Autoscale = &Autoscale{High: math.NaN()} }), "Autoscale.High"},
		{"negative low watermark", mod(func(c *Config) { c.Autoscale = &Autoscale{Low: -0.1} }), "Autoscale.Low"},
		{"inverted watermarks", mod(func(c *Config) { c.Autoscale = &Autoscale{High: 0.2, Low: 0.8} }), "Autoscale.Low"},
		{"inverted pool bounds", mod(func(c *Config) { c.Autoscale = &Autoscale{MinPools: 4, MaxPools: 2} }), "Autoscale.MinPools"},
		// quickConfig dispatches batches of up to 3 and 25% tall frames;
		// the default MaxBatch is 4.
		{"preset calibration below MaxBatch", mod(func(c *Config) { c.Cal = calAt(t, 1, 0) }), "Cal"},
		{"preset calibration below default MaxBatch", mod(func(c *Config) { c.MaxBatch = 0; c.Cal = mustCal(t) }), "Cal"},
		{"preset calibration without tall geometry", mod(func(c *Config) { c.Cal = calAt(t, 3, 0) }), "Cal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatal("degenerate config validated cleanly")
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *ConfigError", err)
			}
			if ce.Field != tc.wantField {
				t.Fatalf("error names field %q, want %q (%v)", ce.Field, tc.wantField, err)
			}
			if ce.Error() == "" {
				t.Fatal("empty error string")
			}
			// The gate is shared: Run must refuse the same config with the
			// same typed error before doing any work.
			if _, runErr := Run(tc.cfg); !errors.As(runErr, &ce) {
				t.Fatalf("Run let the degenerate config through: %v", runErr)
			}
		})
	}
}

// calAt calibrates the quick config at another MaxBatch and TallFrac,
// giving a preset table that may not cover quickConfig itself.
func calAt(t *testing.T, maxBatch int, tallFrac float64) *Calibration {
	t.Helper()
	cfg := quickConfig()
	cfg.MaxBatch, cfg.TallFrac = maxBatch, tallFrac
	cal, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// TestValidateAcceptsZeroDefaults pins the convention the rejects lean
// on: zero means "use the default", so an all-zero Config (and zeroed
// sub-configs) must validate.
func TestValidateAcceptsZeroDefaults(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero Config rejected: %v", err)
	}
	cfg := quickConfig()
	cfg.Load = &RateModel{}
	cfg.Autoscale = &Autoscale{}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zeroed sub-configs rejected: %v", err)
	}
	if err := fleetConfig(t).Validate(); err != nil {
		t.Fatalf("the fleet test scenario rejected: %v", err)
	}
	// A preset calibration may cover more than the config dispatches: a
	// larger MaxBatch, or a tall geometry the config never requests.
	cfg = quickConfig()
	cfg.Cal = mustCal(t)
	cfg.MaxBatch, cfg.TallFrac = 2, 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("a covering preset calibration rejected: %v", err)
	}
}
