package qsig

import "testing"

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own.
var raceEnabled bool

// TestAppendNormalizedAllocFree pins the scratch-memory form of the
// normaliser: appending a signature into a buffer that has room allocates
// nothing, whatever literals, case and spacing the query carries.
func TestAppendNormalizedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	queries := []string{
		"SELECT * FROM clients WHERE id='105'",
		"UPDATE t SET a = 'O''Brien' WHERE b > 3",
		"  SELECT  name,\n balance FROM t  ",
		"\vselect 1 ",
		"",
	}
	buf := make([]byte, 0, 256)
	for _, q := range queries {
		if got, want := string(AppendNormalized(buf[:0], q)), Normalize(q); got != want {
			t.Fatalf("AppendNormalized(%q) = %q, Normalize = %q", q, got, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, q := range queries {
			buf = AppendNormalized(buf[:0], q)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendNormalized into a buffer with room allocates %v times", allocs)
	}
}
