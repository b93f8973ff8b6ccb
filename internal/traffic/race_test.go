//go:build race

package traffic

func init() { raceEnabled = true }
