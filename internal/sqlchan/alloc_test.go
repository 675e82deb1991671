package sqlchan

import (
	"testing"

	"adprom/internal/collector"
	"adprom/internal/dataset"
)

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own.
var raceEnabled bool

// TestObserveAllocFree pins the query path of a warm scorer: replaying
// every query of appb's training runs, a flush per run, allocates nothing.
// Every signature is a trained one, so each is normalised into the scorer's
// scratch memory and its window entry is the profile's own string.
func TestObserveAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	traces, err := dataset.AppB().CollectTraces(collector.ModeADPROM)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Train(traces, Options{SensitiveColumns: []string{"name", "balance"}})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScorer(p)
	queries := 0
	replay := func() {
		queries = 0
		for _, tr := range traces {
			sc.Reset()
			for i := range tr {
				if tr[i].SQL != "" {
					sc.Observe(tr[i].SQL, tr[i].Rows)
					queries++
				}
			}
			sc.Flush()
		}
	}
	replay() // warm: the scratch memory reaches the longest signature
	if allocs := testing.AllocsPerRun(20, replay); allocs != 0 {
		t.Fatalf("a warm scorer's %d training queries allocate %v times", queries, allocs)
	}
}
