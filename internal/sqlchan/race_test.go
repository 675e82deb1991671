//go:build race

package sqlchan

func init() { raceEnabled = true }
