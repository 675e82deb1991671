package metrics

import "testing"

func TestCountersSwapFields(t *testing.T) {
	var c Counters
	c.AddSwap()
	c.AddSwap()
	c.AddEngineRetired()
	s := c.Snapshot()
	if s.Swaps != 2 || s.EnginesRetired != 1 {
		t.Fatalf("swap counters = %d/%d, want 2/1", s.Swaps, s.EnginesRetired)
	}
}
