package detect

// Adaptive thresholding (paper §IV-D, citing [29]): the security
// administrator reduces the false-positive rate over time when the program's
// behaviour legitimately drifts, by explicit feedback on one alert at a
// time. The threshold never moves on unvetted traffic: under drift a
// legitimate change and an attack look alike, so only an administrator's
// verdict relaxes it.

// MarkFalsePositive records an administrator verdict that alert was benign:
// the threshold moves below the alert's score by margin (a non-positive
// margin defaults to 0.02). Alerts without a probability score (OutOfContext)
// instead whitelist the (label, caller) pair.
func (e *Engine) MarkFalsePositive(a Alert, margin float64) {
	if margin <= 0 {
		margin = 0.02
	}
	switch a.Flag {
	case FlagAnomalous, FlagDL:
		if t := a.Score - margin; t < e.threshold {
			e.threshold = t
		}
	case FlagOutOfContext:
		if e.oocAllowed == nil {
			e.oocAllowed = map[[2]string]bool{}
		}
		e.oocAllowed[[2]string{a.Label, a.Caller}] = true
	}
}
