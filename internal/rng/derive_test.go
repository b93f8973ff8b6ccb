package rng

import "testing"

// Every simulation, model, traffic and fleet seed of the module is a
// Derive value, so a change to its output re-draws every noise overlay and
// every PowerAPI calibration and shifts every table. These values were
// recorded from the fmt-based FNV-1a derivations earlier builds shipped
// (the protocol, traffic and fleet packages each had one) and, like the
// run-key pins, have no update flag: a mismatch means the derivation
// changed.
var seedPins = []struct {
	seed  int64
	parts []string
	want  int64
}{
	{1, []string{"pair", "fibonacci-3 || matrixprod-3"}, -604889547998104900},
	{1, []string{"model", "powerapi", "fibonacci-3 || matrixprod-3"}, -4690699428423696808},
	{42, []string{"traffic", "web-0@0s || db-1@2s"}, 3647557897977245597},
	{-7, []string{"solo", "int64-16"}, -2580903584604631259},
	{0, []string{"model", "", "x"}, 3533230704612146926},
	{-9223372036854775808, []string{""}, -4624910060908396901},
	{9223372036854775807, nil, -590257586296526517},
	// Fleet node, noise, traffic-shard and context seeds.
	{1, []string{"node", "node-00000"}, -3215089682171256391},
	{7, []string{"noise", "node-00003"}, 6304403768562901308},
	{-3, []string{"traffic", "node-00042"}, -7523670857285910985},
	{42, []string{"ctx", "node-99999"}, -6788716021956045704},
	// Traffic per-scenario generator seeds.
	{1, []string{"scenario", "0"}, 5931979449461387494},
	{-9, []string{"scenario", "47"}, 1186890317025915752},
	{1234567, []string{"scenario", "1000"}, -8077934482729161060},
}

// TestDerivePinned pins Derive on pair, model, traffic, solo, fleet and
// scenario labels, a negative and an extreme campaign seed, empty parts and
// no parts at all, and checks that folding the parts into a saved prefix
// state gives the same seed.
func TestDerivePinned(t *testing.T) {
	t.Parallel()
	for _, c := range seedPins {
		if got := Derive(c.seed, c.parts...); got != c.want {
			t.Errorf("Derive(%d, %q) = %d, pinned %d", c.seed, c.parts, got, c.want)
		}
		if len(c.parts) == 0 {
			continue
		}
		prefix := NewSeedHash(c.seed).Part(c.parts[0])
		for _, p := range c.parts[1:] {
			prefix = prefix.Part(p)
		}
		if got := prefix.Seed(); got != c.want {
			t.Errorf("prefix state over (%d, %q) = %d, pinned %d", c.seed, c.parts, got, c.want)
		}
	}
}

// TestDeriveStable: equal inputs derive equal seeds; a different label or
// parent seed derives a different one.
func TestDeriveStable(t *testing.T) {
	t.Parallel()
	a := Derive(1, "solo", "x")
	b := Derive(1, "solo", "x")
	c := Derive(1, "solo", "y")
	d := Derive(2, "solo", "x")
	if a != b {
		t.Error("same inputs, different seeds")
	}
	if a == c || a == d {
		t.Error("different inputs, same seed")
	}
}
