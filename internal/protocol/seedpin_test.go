package protocol

import "testing"

// Every simulation and model seed of a campaign is a deriveSeed value, so a
// change to its output re-draws every noise overlay and every PowerAPI
// calibration and shifts every table. These values were recorded from the
// fmt-based FNV-1a derivation earlier builds shipped and, like the run-key
// pins, have no update flag: a mismatch means the derivation changed.
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
}

// TestDeriveSeedPinned pins deriveSeed on pair, model and traffic labels, a
// negative and an extreme campaign seed, empty parts and no parts at all.
func TestDeriveSeedPinned(t *testing.T) {
	t.Parallel()
	for _, c := range seedPins {
		if got := deriveSeed(c.seed, c.parts...); got != c.want {
			t.Errorf("deriveSeed(%d, %q) = %d, pinned %d", c.seed, c.parts, got, c.want)
		}
	}
}
