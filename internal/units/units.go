// Package units provides the physical value types used throughout powerdiv:
// power in watts, energy in joules, frequency in hertz and CPU time.
//
// The types are thin float64/int64 wrappers. They exist to make signatures
// self-describing (a function returning units.Watts cannot be confused with
// one returning joules) and to centralise formatting and conversions, not to
// enforce dimensional analysis at compile time.
package units

import (
	"fmt"
	"math"
	"time"
)

// Watts is instantaneous power in watts.
type Watts float64

// Joules is an amount of energy in joules.
type Joules float64

// Hertz is a frequency in hertz. CPU core frequencies are typically
// expressed in GHz; use the GHz helper and the GHz method for conversions.
type Hertz float64

// Common frequency scales.
const (
	KHz Hertz = 1e3
	MHz Hertz = 1e6
	GHz Hertz = 1e9
)

// Common energy scales.
const (
	Microjoule Joules = 1e-6
	Millijoule Joules = 1e-3
	Kilojoule  Joules = 1e3
)

// Energy returns the energy dissipated by a constant power draw p over d.
func (p Watts) Energy(d time.Duration) Joules {
	return Joules(float64(p) * d.Seconds())
}

// String formats the power with an adaptive precision, e.g. "28.0 W".
func (p Watts) String() string {
	return fmt.Sprintf("%.1f W", float64(p))
}

// Power returns the constant power that dissipates e over d.
// It returns 0 if d is not positive.
func (e Joules) Power(d time.Duration) Watts {
	if d <= 0 {
		return 0
	}
	return Watts(float64(e) / d.Seconds())
}

// Kilojoules returns the energy expressed in kJ.
func (e Joules) Kilojoules() float64 { return float64(e) / 1e3 }

// Microjoules returns the energy expressed in µJ, the native unit of RAPL
// energy counters.
func (e Joules) Microjoules() float64 { return float64(e) * 1e6 }

// String formats the energy adaptively: "153 J", "36.46 kJ", "12.3 µJ".
func (e Joules) String() string {
	abs := math.Abs(float64(e))
	switch {
	case abs >= 1e3:
		return fmt.Sprintf("%.2f kJ", float64(e)/1e3)
	case abs >= 1:
		return fmt.Sprintf("%.1f J", float64(e))
	case abs >= 1e-3:
		return fmt.Sprintf("%.2f mJ", float64(e)*1e3)
	case abs == 0:
		return "0 J"
	default:
		return fmt.Sprintf("%.1f µJ", float64(e)*1e6)
	}
}

// GHz returns the frequency expressed in gigahertz.
func (f Hertz) GHz() float64 { return float64(f) / 1e9 }

// MHz returns the frequency expressed in megahertz.
func (f Hertz) MHz() float64 { return float64(f) / 1e6 }

// String formats the frequency adaptively, e.g. "3.60 GHz".
func (f Hertz) String() string {
	abs := math.Abs(float64(f))
	switch {
	case abs >= 1e9:
		return fmt.Sprintf("%.2f GHz", f.GHz())
	case abs >= 1e6:
		return fmt.Sprintf("%.0f MHz", f.MHz())
	case abs >= 1e3:
		return fmt.Sprintf("%.0f kHz", float64(f)/1e3)
	default:
		return fmt.Sprintf("%.0f Hz", float64(f))
	}
}

// CPUTime is an amount of CPU time consumed by a process, equivalent to
// time.Duration but kept distinct so that wall-clock durations and CPU-time
// accounting cannot be mixed up in scheduler code.
type CPUTime time.Duration

// Duration converts the CPU time to a time.Duration.
func (c CPUTime) Duration() time.Duration { return time.Duration(c) }

// Seconds returns the CPU time in seconds.
func (c CPUTime) Seconds() float64 { return time.Duration(c).Seconds() }

// Add returns c + d.
func (c CPUTime) Add(d CPUTime) CPUTime { return c + d }

// String formats the CPU time like a duration, e.g. "1.5s".
func (c CPUTime) String() string { return time.Duration(c).String() }

// Utilization returns the CPU utilization c/wall expressed as a fraction.
// A process that kept two cores fully busy for the whole window returns 2.0.
// It returns 0 if wall is not positive.
func (c CPUTime) Utilization(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return c.Seconds() / wall.Seconds()
}
