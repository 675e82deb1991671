//go:build race

package runtime

func init() { raceEnabled = true }
