package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestWattsEnergy(t *testing.T) {
	tests := []struct {
		name string
		p    Watts
		d    time.Duration
		want Joules
	}{
		{"one watt one second", 1, time.Second, 1},
		{"ten watts half second", 10, 500 * time.Millisecond, 5},
		{"zero power", 0, time.Hour, 0},
		{"zero duration", 100, 0, 0},
		{"machine scale", 230, 516 * time.Second, 118680},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.p.Energy(tt.d)
			if math.Abs(float64(got-tt.want)) > 1e-9 {
				t.Errorf("Energy(%v, %v) = %v, want %v", tt.p, tt.d, got, tt.want)
			}
		})
	}
}

func TestJoulesPower(t *testing.T) {
	if got := Joules(10).Power(2 * time.Second); got != 5 {
		t.Errorf("Power = %v, want 5", got)
	}
	if got := Joules(10).Power(0); got != 0 {
		t.Errorf("Power with zero duration = %v, want 0", got)
	}
	if got := Joules(10).Power(-time.Second); got != 0 {
		t.Errorf("Power with negative duration = %v, want 0", got)
	}
}

func TestEnergyPowerRoundTrip(t *testing.T) {
	f := func(p float64, ms uint16) bool {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return true
		}
		p = math.Mod(p, 1e6)
		d := time.Duration(int(ms)+1) * time.Millisecond
		back := Watts(p).Energy(d).Power(d)
		return math.Abs(float64(back)-p) <= 1e-6*math.Max(1, math.Abs(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJoulesString(t *testing.T) {
	tests := []struct {
		e    Joules
		want string
	}{
		{36460, "36.46 kJ"},
		{153, "153.0 J"},
		{0.5, "500.00 mJ"},
		{0, "0 J"},
		{2 * Microjoule, "2.0 µJ"},
	}
	for _, tt := range tests {
		if got := tt.e.String(); got != tt.want {
			t.Errorf("Joules(%g).String() = %q, want %q", float64(tt.e), got, tt.want)
		}
	}
}

func TestHertzString(t *testing.T) {
	tests := []struct {
		f    Hertz
		want string
	}{
		{3.6 * GHz, "3.60 GHz"},
		{1200 * MHz, "1.20 GHz"},
		{800 * MHz, "800 MHz"},
		{20 * KHz, "20 kHz"},
		{50, "50 Hz"},
	}
	for _, tt := range tests {
		if got := tt.f.String(); got != tt.want {
			t.Errorf("Hertz(%g).String() = %q, want %q", float64(tt.f), got, tt.want)
		}
	}
}

func TestHertzConversions(t *testing.T) {
	f := 2.4 * GHz
	if got := f.GHz(); got != 2.4 {
		t.Errorf("GHz() = %v, want 2.4", got)
	}
	if got := f.MHz(); got != 2400 {
		t.Errorf("MHz() = %v, want 2400", got)
	}
}

func TestCPUTimeUtilization(t *testing.T) {
	tests := []struct {
		name string
		c    CPUTime
		wall time.Duration
		want float64
	}{
		{"fully busy one core", CPUTime(time.Second), time.Second, 1},
		{"two cores busy", CPUTime(2 * time.Second), time.Second, 2},
		{"half busy", CPUTime(500 * time.Millisecond), time.Second, 0.5},
		{"zero wall", CPUTime(time.Second), 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.c.Utilization(tt.wall); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Utilization = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCPUTimeAdd(t *testing.T) {
	a := CPUTime(time.Second)
	b := CPUTime(500 * time.Millisecond)
	if got := a.Add(b); got != CPUTime(1500*time.Millisecond) {
		t.Errorf("Add = %v", got)
	}
}

func TestEnergyUnits(t *testing.T) {
	if got := Joules(36460).Kilojoules(); got != 36.46 {
		t.Errorf("Kilojoules = %v, want 36.46", got)
	}
	if got := Joules(1).Microjoules(); got != 1e6 {
		t.Errorf("Microjoules = %v, want 1e6", got)
	}
}
