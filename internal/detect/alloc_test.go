package detect

import (
	"testing"

	"adprom/internal/sqlchan"
)

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own.
var raceEnabled bool

// TestObservePerCallAllocFree pins the per-call observe path: a warm engine
// replays every apph training run one call at a time, then flushes and
// resets its window, without allocating — on the HMM alone and with the SQL
// channel fused beside it, as serve runs it. The runs raise no alerts, so
// every allocation would be observe-path overhead.
func TestObservePerCallAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	p, traces, _ := trainAppH(t)
	sqlP, err := sqlchan.Train(traces, sqlchan.Options{SensitiveColumns: []string{"name", "balance"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sql  bool
	}{{"hmm", false}, {"sql+fusion", true}} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(p)
			if tc.sql {
				e.SetSQLChannel(sqlchan.NewScorer(sqlP), FusionConfig{})
			}
			raised := 0
			replay := func() {
				for _, tr := range traces {
					for _, c := range tr {
						e.Observe(c)
					}
					raised += len(e.Flush())
					e.ResetWindow()
				}
			}
			replay() // warm: the scorers and the window ring reach their full size
			if raised != 0 {
				t.Fatalf("training runs raised %d alerts", raised)
			}
			if allocs := testing.AllocsPerRun(20, replay); allocs != 0 {
				t.Fatalf("per-call replay of %d runs allocates %v times", len(traces), allocs)
			}
		})
	}
}
