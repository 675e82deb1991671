//go:build race

package qsig

func init() { raceEnabled = true }
