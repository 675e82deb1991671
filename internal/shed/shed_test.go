package shed

import "testing"

func TestConfigDefaults(t *testing.T) {
	c := New(Config{}, 4).Config()
	if c.HighWater != defaultHighWater || c.LowWater != defaultLowWater {
		t.Fatalf("watermarks: got %v/%v", c.HighWater, c.LowWater)
	}
	if c.GuaranteeRisk != defaultGuaranteeRisk || c.MinAdmit != defaultMinAdmit {
		t.Fatalf("bands: got %v/%v", c.GuaranteeRisk, c.MinAdmit)
	}
	if c.AlertMemory != defaultAlertMemory || c.StarveLimit != defaultStarveLimit {
		t.Fatalf("memories: got %v/%v", c.AlertMemory, c.StarveLimit)
	}
	// LowWater must stay strictly below a user-set HighWater.
	c = New(Config{HighWater: 0.3}, 1).Config()
	if c.LowWater >= c.HighWater {
		t.Fatalf("LowWater %v not below HighWater %v", c.LowWater, c.HighWater)
	}
}

func TestDisengagedAdmitsEverything(t *testing.T) {
	c := New(Config{}, 1)
	sr := c.NewSession("s")
	for i := 0; i < 100; i++ {
		d := c.Decide(sr, 0, 0.5) // between LowWater and HighWater: stays off
		if !d.Admit || d.Engaged {
			t.Fatalf("decision %d: admit=%v engaged=%v, want admit while disengaged", i, d.Admit, d.Engaged)
		}
	}
}

func TestHysteresis(t *testing.T) {
	c := New(Config{}, 1)
	sr := c.NewSession("s")
	if d := c.Decide(sr, 0, 0.74); d.Engaged {
		t.Fatal("engaged below HighWater")
	}
	if d := c.Decide(sr, 0, 0.80); !d.Engaged {
		t.Fatal("did not engage at HighWater")
	}
	// Occupancy falls back into the hysteresis band: stays engaged.
	if d := c.Decide(sr, 0, 0.60); !d.Engaged {
		t.Fatal("disengaged inside the hysteresis band")
	}
	if d := c.Decide(sr, 0, 0.30); d.Engaged {
		t.Fatal("did not disengage below LowWater")
	}
	// Per-worker latches are independent.
	c2 := New(Config{}, 2)
	c2.Decide(sr, 0, 0.9)
	if d := c2.Decide(sr, 1, 0.5); d.Engaged {
		t.Fatal("worker 1 inherited worker 0's latch")
	}
}

func TestAlertGuarantee(t *testing.T) {
	c := New(Config{AlertMemory: 4}, 1)
	sr := c.NewSession("victim")
	sr.NoteJudgement(-3.5, true)
	if r := sr.Risk(); r != 1 {
		t.Fatalf("risk after alert = %v, want 1", r)
	}
	// At full occupancy, an alert-bearing session is still guaranteed.
	for i := 0; i < 200; i++ {
		d := c.Decide(sr, 0, 1.0)
		if !d.Admit || !d.Guaranteed {
			t.Fatalf("decision %d: admit=%v guaranteed=%v for alert-bearing session", i, d.Admit, d.Guaranteed)
		}
	}
	// Disengaged too: the op must not depend on the call budget, which other
	// producers can fill between this decision and the enqueue.
	if d := c.Decide(sr, 0, 0.1); d.Engaged || !d.Guaranteed {
		t.Fatalf("disengaged decision: engaged=%v guaranteed=%v for alert-bearing session", d.Engaged, d.Guaranteed)
	}
	// The alert ages out after AlertMemory quiet windows.
	for i := 0; i < 4; i++ {
		sr.NoteJudgement(-1.0, false)
	}
	if r := sr.Risk(); r >= 1 {
		t.Fatalf("risk did not decay after AlertMemory windows: %v", r)
	}
}

func TestDeterministicReplay(t *testing.T) {
	script := func(seed uint64) []bool {
		c := New(Config{Seed: seed}, 1)
		srs := []*SessionRisk{c.NewSession("a"), c.NewSession("b"), c.NewSession("c")}
		var out []bool
		for i := 0; i < 300; i++ {
			sr := srs[i%len(srs)]
			occ := 0.80 + 0.19*float64(i%5)/4 // engaged, varying severity
			d := c.Decide(sr, 0, occ)
			if d.Admit {
				c.Admitted(sr, d, 1)
			} else {
				c.Shed(sr, d, 1)
			}
			out = append(out, d.Admit)
		}
		return out
	}
	a, b := script(42), script(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d", i)
		}
	}
	diff := false
	for i, v := range script(7) {
		if v != a[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical decision sequences")
	}
}

func TestShedRateTracksRisk(t *testing.T) {
	// At high occupancy, a low-risk session sheds far more often than a
	// drifting one.
	c := New(Config{Seed: 1}, 1)
	quiet := c.NewSession("quiet")
	drifty := c.NewSession("drifty")
	for i := 0; i < 50; i++ {
		quiet.NoteJudgement(-1.0, false)
		drifty.NoteJudgement(-1.0-0.05*float64(i), false) // sliding down
	}
	if rq, rd := quiet.Risk(), drifty.Risk(); rd <= rq {
		t.Fatalf("drift did not raise risk: quiet=%v drifty=%v", rq, rd)
	}
	shed := func(sr *SessionRisk) int {
		n := 0
		for i := 0; i < 500; i++ {
			d := c.Decide(sr, 0, 0.97)
			if d.Admit {
				c.Admitted(sr, d, 1)
			} else {
				c.Shed(sr, d, 1)
				n++
			}
		}
		return n
	}
	if sq, sd := shed(quiet), shed(drifty); sd >= sq {
		t.Fatalf("higher risk did not shed less: quiet=%d drifty=%d", sq, sd)
	}
}

func TestSensitiveTouchRaisesRisk(t *testing.T) {
	c := New(Config{SensitiveMemory: 8}, 1)
	sr := c.NewSession("s")
	for i := 0; i < 20; i++ {
		sr.NoteJudgement(-1.0, false)
	}
	base := sr.Risk()
	sr.NoteSensitive()
	touched := sr.Risk()
	if touched <= base {
		t.Fatalf("sensitive touch did not raise risk: %v -> %v", base, touched)
	}
	for i := 0; i < 8; i++ {
		sr.NoteJudgement(-1.0, false)
	}
	if decayed := sr.Risk(); decayed >= touched {
		t.Fatalf("sensitive component did not decay: %v -> %v", touched, decayed)
	}
}

func TestStarvationBoundsTimeSinceScored(t *testing.T) {
	c := New(Config{StarveLimit: 16, Seed: 3, MinAdmit: 1e-9}, 1)
	sr := c.NewSession("boring")
	for i := 0; i < 20; i++ {
		sr.NoteJudgement(-1.0, false)
	}
	// Full occupancy: without starvation pressure the admit probability is
	// ~MinAdmit ≈ 0, yet the session must be admitted within StarveLimit.
	admitted := -1
	for i := 0; i < 64; i++ {
		d := c.Decide(sr, 0, 1.0)
		if d.Admit {
			admitted = i
			break
		}
		c.Shed(sr, d, 1)
	}
	if admitted < 0 || admitted > 16 {
		t.Fatalf("starved session admitted at decision %d, want within StarveLimit=16", admitted)
	}
}

func TestSnapshotMissProbability(t *testing.T) {
	c := New(Config{}, 2)
	sr := c.NewSession("s")
	d := Decision{Risk: 0.5}
	c.Admitted(sr, d, 10) // 5.0 risk mass scored
	c.Shed(sr, d, 2)      // 1.0 risk mass shed
	s := c.Snapshot()
	if s.ShedCalls != 2 || s.ShedDecisions != 1 || s.AdmitDecisions != 1 {
		t.Fatalf("counts: %+v", s)
	}
	if got, want := s.MissProbability, 1.0/6.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("miss probability = %v, want %v", got, want)
	}
	if sr.ShedCalls() != 2 {
		t.Fatalf("session shed calls = %d, want 2", sr.ShedCalls())
	}
	// Engaged reflects any worker's latch.
	if c.Snapshot().Engaged {
		t.Fatal("engaged with no latched worker")
	}
	c.Decide(sr, 1, 0.99)
	if !c.Snapshot().Engaged {
		t.Fatal("snapshot missed worker 1's latch")
	}
}

func TestUnitRange(t *testing.T) {
	for n := uint64(0); n < 10000; n++ {
		u := unit(123, 456, n)
		if u < 0 || u >= 1 {
			t.Fatalf("unit out of [0,1): %v at n=%d", u, n)
		}
	}
}
