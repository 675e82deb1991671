package experiments

import (
	"fmt"

	"adprom/internal/attack"
	"adprom/internal/collector"
	"adprom/internal/core"
	"adprom/internal/dataset"
	"adprom/internal/hmm"
	"adprom/internal/metrics"
	"adprom/internal/profile"
)

// ConfusionRow is one application's row of Table VII.
type ConfusionRow struct {
	App       string
	Sequences int
	Matrix    metrics.Confusion
	// AS2Detected of AS2Total A-S2 anomalies (foreign calls injected) and
	// AS3Detected of AS3Total A-S3 anomalies (legitimate calls duplicated)
	// score below the threshold: the matrix's TP and TP+FN split by type.
	AS2Detected, AS2Total int
	AS3Detected, AS3Total int
}

// Table7 regenerates Table VII: for each SIR-style application, the profile
// trained on 4/5 of the traces classifies the held-out normal windows plus
// synthetic anomalies of types A-S2 (foreign calls injected) and A-S3
// (legitimate call frequencies inflated) at the profile's own threshold. The
// report also prints each type's detected/total count.
func Table7(cfg Config) ([]ConfusionRow, *Report, error) {
	rep := &Report{ID: "table7", Title: "Confusion matrix of the programs' models (paper Table VII)"}
	rep.addf("%-6s %7s %5s %7s %4s %4s %6s %6s %8s %7s %7s   %s",
		"app", "#seq", "TP", "TN", "FP", "FN", "Rec", "Prec", "Acc", "A-S2", "A-S3", "paper acc")
	paperAcc := map[string]string{"app1": "0.9952", "app2": "0.9998", "app3": "0.9978", "app4": "0.9999"}

	var out []ConfusionRow
	for _, app := range sirAppsFor(cfg) {
		row, err := table7App(cfg, app)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: table7 %s: %w", app.Name, err)
		}
		out = append(out, row)
		m := row.Matrix
		rep.addf("%-6s %7d %5d %7d %4d %4d %6.2f %6.2f %8.4f %7s %7s   %s",
			row.App, row.Sequences, m.TP, m.TN, m.FP, m.FN,
			m.Recall(), m.Precision(), m.Accuracy(),
			fmt.Sprintf("%d/%d", row.AS2Detected, row.AS2Total),
			fmt.Sprintf("%d/%d", row.AS3Detected, row.AS3Total), paperAcc[app.Name])
	}
	return out, rep, nil
}

func table7App(cfg Config, app *dataset.App) (ConfusionRow, error) {
	row := ConfusionRow{App: app.Name}

	traces, err := app.CollectTraces(collector.ModeADPROM)
	if err != nil {
		return row, err
	}
	// Hold out every 5th trace for validation.
	var train, val []collector.Trace
	for i, tr := range traces {
		if i%5 == 4 {
			val = append(val, tr)
		} else {
			train = append(train, tr)
		}
	}
	if len(val) == 0 {
		val = train
	}

	p, _, err := core.Train(app.Prog, train, profile.Options{
		Seed:            cfg.Seed,
		Train:           hmm.TrainOptions{MaxIters: cfg.trainIters()},
		MaxTrainWindows: cfg.maxWindows(),
		ClusterRatio:    cfg.clusterRatio(),
	})
	if err != nil {
		return row, err
	}

	var windows [][]string
	for _, tr := range val {
		windows = append(windows, tr.LabelWindows(p.WindowLen)...)
	}
	// Cap the scored validation set: scoring is O(N²) per window and the
	// bash-scale corpus yields ~100k windows.
	if cap := cfg.evalWindows(); len(windows) > cap {
		step := len(windows) / cap
		sampled := make([][]string, 0, cap)
		for i := 0; i < len(windows) && len(sampled) < cap; i += step {
			sampled = append(sampled, windows[i])
		}
		windows = sampled
	}
	normScores := make([]float64, 0, len(windows))
	for _, w := range windows {
		normScores = append(normScores, p.Score(w))
	}

	// Anomalies: paper-scale counts (≈90–150 per app), half A-S2 and half
	// A-S3, derived from validation windows.
	nAnom := 100
	if nAnom > len(windows) {
		nAnom = len(windows)
	}
	var anomScores []float64
	for i := 0; i < nAnom; i++ {
		w := windows[i*len(windows)/nAnom]
		var a []string
		detected, total := &row.AS2Detected, &row.AS2Total
		if i%2 == 0 {
			a = attack.AS2(w, 3, cfg.Seed+int64(i))
		} else {
			a = attack.AS3(w, 8, cfg.Seed+int64(i))
			detected, total = &row.AS3Detected, &row.AS3Total
		}
		score := p.Score(a)
		anomScores = append(anomScores, score)
		*total++
		if score < p.Threshold {
			*detected++
		}
	}

	row.Matrix = metrics.Count(normScores, anomScores, p.Threshold)
	row.Sequences = row.Matrix.Total()
	return row, nil
}
