package models

import (
	"math"

	"powerdiv/internal/units"
)

// SmartWattsConfig tunes the per-frequency-bin calibration.
type SmartWattsConfig struct {
	// MinSamples is how many ticks a bin collects before its model is
	// usable (default 20 — 2 s at the default sampling period).
	MinSamples int
}

// DefaultSmartWattsConfig returns the reference configuration.
func DefaultSmartWattsConfig() SmartWattsConfig {
	return SmartWattsConfig{MinSamples: 20}
}

// binWidth groups core frequencies into calibration bins: 100 MHz, the
// granularity of real DVFS steps.
const binWidth = 100 * units.MHz

// SmartWatts models the self-calibrating power meter of the paper's
// reference [4] more faithfully than the PowerAPI wrapper: it maintains
// one calibration per CPU-frequency bin (real SmartWatts fits one power
// model per frequency, since the counter→power relation changes with
// DVFS). A bin's calibration survives context changes — when applications
// arrive or depart but the machine stays in an already-calibrated
// frequency bin, estimation continues immediately, unlike PowerAPI's
// restart-the-learning-window behaviour. Estimation only pauses while the
// current bin is cold.
//
// Attribution within a tick follows the cycles-family counters, as for
// PowerAPI (the paper finds both models divide by CPU time in practice).
type SmartWatts struct {
	cfg SmartWattsConfig
	// bins holds one entry per frequency bin visited, in first-visit
	// order; a scenario visits a handful, so lookup is a linear scan.
	bins  []swBin
	ticks *tickAdapter
	// segW is the cached estimate weight column, rebuilt after each refit.
	segW []units.Watts
}

// swBin is one frequency bin's calibration state. Its window is borrowed
// from calibWindows when the bin is first visited and handed back at
// release.
type swBin struct {
	key     int64
	win     *calibWindow
	fitted  bool
	weights [4]float64
	scales  [4]float64
}

// NewSmartWatts returns a SmartWatts factory.
func NewSmartWatts(cfg SmartWattsConfig) Factory {
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 20
	}
	return Factory{
		Name: "smartwatts",
		New: func(int64) Model {
			return &SmartWatts{cfg: cfg}
		},
	}
}

// Name returns "smartwatts".
func (m *SmartWatts) Name() string { return "smartwatts" }

// bin returns the calibration bin for a frequency. The pointer is valid
// until the next call, which may grow bins.
func (m *SmartWatts) bin(freq units.Hertz) *swBin {
	key := int64(math.Round(float64(freq) / float64(binWidth)))
	for i := range m.bins {
		if m.bins[i].key == key {
			return &m.bins[i]
		}
	}
	m.bins = append(m.bins, swBin{key: key, win: borrowWindow()})
	return &m.bins[len(m.bins)-1]
}

// release hands every bin's window back to calibWindows once the model is
// done (StreamReplay.Release); the model must not observe afterwards. Each
// bin drops its reference before the Put.
func (m *SmartWatts) release() {
	for i := range m.bins {
		if w := m.bins[i].win; w != nil {
			m.bins[i].win = nil
			w.handBack()
		}
	}
}

// Observe ingests one tick as a one-tick segment.
func (m *SmartWatts) Observe(t Tick) map[string]units.Watts { return adapter(&m.ticks).observe(m, t) }

// ObserveInto ingests one dense tick as a one-tick segment.
func (m *SmartWatts) ObserveInto(t Tick, out []units.Watts) bool {
	return adapter(&m.ticks).observeInto(m, t, out)
}

// calibrateTick feeds one tick's aggregate row into the bin and reports
// whether the bin is warm enough to estimate, and whether this tick's row
// triggered a refit (which invalidates the cached estimate weights).
func (m *SmartWatts) calibrateTick(b *swBin, agg [4]float64, degraded bool, power units.Watts) (warm, refitted bool) {
	// Degraded intervals are divided but never calibrated on: a coalesced
	// or zone-incomplete row would poison the bin's fit (see Tick.Degraded).
	if !degraded {
		b.win.add(agg, float64(power))
	}
	rows := b.win.len()
	if rows < m.cfg.MinSamples {
		return false, false
	}
	// Refit periodically as the bin accumulates evidence. A degraded tick
	// adds no row, so it leaves a fitted bin's weights as they are.
	if !b.fitted || !degraded && rows%m.cfg.MinSamples == 0 {
		b.weights, b.scales = b.win.fit(calibRidge)
		b.fitted = true
		refitted = true
	}
	return true, refitted
}

// WarmBins reports how many frequency bins have usable calibrations —
// exported for white-box assertions.
func (m *SmartWatts) WarmBins() int {
	n := 0
	for i := range m.bins {
		if m.bins[i].fitted {
			n++
		}
	}
	return n
}

// ObserveSegmentInto runs SmartWatts over a segment: the bin and the
// aggregate calibration row are constant, every covered tick feeds the bin
// in order (so refits fire at the per-tick cadence), and the cached
// estimate weights are rebuilt whenever a refit lands. A tick estimates as
// soon as its bin is warm.
func (m *SmartWatts) ObserveSegmentInto(seg *SegmentTicks, out []units.Watts, ok []bool) {
	n := len(seg.Samples)
	running := 0
	for i := range seg.Samples {
		if seg.Samples[i].Present() {
			running++
		}
	}
	if running == 0 {
		for k := range ok {
			ok[k] = false
		}
		return
	}
	b := m.bin(seg.Freq)
	var agg [4]float64
	for i := range seg.Samples {
		if !seg.Samples[i].Present() {
			continue
		}
		v := seg.Samples[i].Counters.Rate(seg.Interval).Vector()
		for d := range agg {
			agg[d] += v[d]
		}
	}
	m.segW = sized(m.segW, n)
	w := m.segW
	wValid := false
	for k, pw := range seg.Powers {
		warm, refitted := m.calibrateTick(b, agg, seg.Degraded, pw)
		if !warm {
			ok[k] = false
			continue
		}
		if refitted || !wValid {
			wValid = true
			var total float64
			for i, p := range seg.Samples {
				w[i] = 0
				if !p.Present() {
					continue
				}
				v := p.Counters.Rate(seg.Interval).Vector()
				s := b.weights[0] * v[0] / b.scales[0]
				if s < 0 {
					s = 0
				}
				w[i] = units.Watts(s)
				total += s
			}
			if total <= 0 {
				for i, p := range seg.Samples {
					w[i] = 0
					if p.Present() {
						w[i] = units.Watts(p.CPUTime.Seconds())
					}
				}
			}
		}
		row := out[k*n : (k+1)*n]
		copy(row, w)
		if ShareOutInto(pw, row) {
			ok[k] = true
		} else {
			clear(row)
			ok[k] = false
		}
	}
}
