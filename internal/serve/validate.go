package serve

import (
	"fmt"
	"math"
)

// ConfigError reports one rejected Config field. Callers (paperbench)
// match on the type to distinguish a bad configuration (usage error,
// exit 2) from a failed run.
type ConfigError struct {
	Field  string
	Value  interface{}
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("serve: invalid Config.%s = %v: %s", e.Field, e.Value, e.Reason)
}

func badField(field string, value interface{}, reason string) error {
	return &ConfigError{Field: field, Value: value, Reason: reason}
}

// Validate rejects degenerate Config values before they can panic the
// pool or spin the load generator. The convention is the one
// withDefaults documents: a zero value selects that field's default, so
// zero is always accepted; what Validate rejects is an explicit
// out-of-range request — negative counts, a non-finite or negative
// rate, a fraction outside [0, 1], a burst in (0, 1) that would invert
// the geometric burst-size distribution. Run calls it first, so every
// entry point shares the same gate.
func (c Config) Validate() error {
	switch {
	case c.Blades < 0:
		return badField("Blades", c.Blades, "blade count cannot be negative")
	case c.MaxQueue < 0:
		return badField("MaxQueue", c.MaxQueue, "queue bound cannot be negative")
	case c.MaxBatch < 0:
		return badField("MaxBatch", c.MaxBatch, "batch bound cannot be negative")
	case c.Requests < 0:
		return badField("Requests", c.Requests, "request count cannot be negative")
	case c.Pools < 0:
		return badField("Pools", c.Pools, "pool count cannot be negative")
	case c.RetryBudget < 0:
		return badField("RetryBudget", c.RetryBudget, "retry budget cannot be negative")
	case c.RetryBackoff < 0:
		return badField("RetryBackoff", c.RetryBackoff, "retry backoff cannot be negative")
	case c.Parallel < 0:
		return badField("Parallel", c.Parallel, "worker bound cannot be negative")
	case c.Shards < 0:
		return badField("Shards", c.Shards, "shard worker bound cannot be negative")
	}
	if math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) {
		return badField("Rate", c.Rate, "rate must be finite")
	}
	if c.Rate < 0 {
		return badField("Rate", c.Rate, "offered-load multiple cannot be negative")
	}
	if math.IsNaN(c.OfferedRPS) || math.IsInf(c.OfferedRPS, 0) {
		return badField("OfferedRPS", c.OfferedRPS, "offered rate must be finite")
	}
	if c.OfferedRPS < 0 {
		return badField("OfferedRPS", c.OfferedRPS, "offered rate cannot be negative")
	}
	if math.IsNaN(c.Burst) || math.IsInf(c.Burst, 0) {
		return badField("Burst", c.Burst, "burst must be finite")
	}
	if c.Burst != 0 && c.Burst < 1 {
		return badField("Burst", c.Burst, "mean burst size must be at least 1 (0 selects the default)")
	}
	if math.IsNaN(c.TallFrac) || c.TallFrac < 0 || c.TallFrac > 1 {
		return badField("TallFrac", c.TallFrac, "fraction must lie in [0, 1]")
	}
	if c.Load != nil {
		if err := c.Load.validate(); err != nil {
			return err
		}
	}
	if c.Autoscale != nil {
		if err := c.Autoscale.validate(); err != nil {
			return err
		}
	}
	if c.Cal != nil {
		return c.validateCal()
	}
	return nil
}

// validateCal rejects a preset calibration that does not cover every
// dispatch the defaulted config can make: a batch size past the table's
// MaxBatch, or a tall frame when the table lacks the tall geometry.
func (c Config) validateCal() error {
	d := c.withDefaults()
	if c.Cal.maxBatch < d.MaxBatch {
		return badField("Cal", fmt.Sprintf("MaxBatch %d", c.Cal.maxBatch),
			fmt.Sprintf("calibration stops below the config's MaxBatch %d", d.MaxBatch))
	}
	if d.TallFrac > 0 && c.Cal.geoms[geomIdx(true)] == nil {
		return badField("Cal", "standard geometry only",
			fmt.Sprintf("TallFrac %v requests tall frames the calibration never measured", d.TallFrac))
	}
	return nil
}

func (m *RateModel) validate() error {
	if math.IsNaN(m.DiurnalAmp) || m.DiurnalAmp < 0 || m.DiurnalAmp > 1 {
		return badField("Load.DiurnalAmp", m.DiurnalAmp, "diurnal amplitude must lie in [0, 1]")
	}
	if m.FlashCount < 0 {
		return badField("Load.FlashCount", m.FlashCount, "flash-crowd count cannot be negative")
	}
	if math.IsNaN(m.FlashFactor) || math.IsInf(m.FlashFactor, 0) || m.FlashFactor < 0 {
		return badField("Load.FlashFactor", m.FlashFactor, "flash factor must be finite and non-negative")
	}
	if math.IsNaN(m.FlashFrac) || m.FlashFrac < 0 || m.FlashFrac > 1 {
		return badField("Load.FlashFrac", m.FlashFrac, "flash-window fraction must lie in [0, 1]")
	}
	if m.Period < 0 {
		return badField("Load.Period", m.Period, "diurnal period cannot be negative")
	}
	return nil
}

func (a *Autoscale) validate() error {
	if a.Interval < 0 {
		return badField("Autoscale.Interval", a.Interval, "sample interval cannot be negative")
	}
	if a.Window < 0 {
		return badField("Autoscale.Window", a.Window, "sample window cannot be negative")
	}
	if math.IsNaN(a.High) || math.IsInf(a.High, 0) || a.High < 0 {
		return badField("Autoscale.High", a.High, "scale-up threshold must be finite and non-negative")
	}
	if math.IsNaN(a.Low) || math.IsInf(a.Low, 0) || a.Low < 0 {
		return badField("Autoscale.Low", a.Low, "scale-down threshold must be finite and non-negative")
	}
	if a.High > 0 && a.Low > 0 && a.Low >= a.High {
		return badField("Autoscale.Low", a.Low, "scale-down threshold must lie below the scale-up threshold")
	}
	if a.MinPools < 0 || a.MaxPools < 0 {
		return badField("Autoscale.MinPools", a.MinPools, "pool bounds cannot be negative")
	}
	if a.MinPools > 0 && a.MaxPools > 0 && a.MinPools > a.MaxPools {
		return badField("Autoscale.MinPools", a.MinPools, "MinPools cannot exceed MaxPools")
	}
	return nil
}
