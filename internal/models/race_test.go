//go:build race

package models

func init() { raceEnabled = true }
