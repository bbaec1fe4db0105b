package exps

import (
	"fmt"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Paper: "Table 1",
		Short: "bottleneck link configurations used in the ns validation",
		Run:   runTable1,
	})
	register(Experiment{
		ID:    "table2",
		Paper: "Table 2",
		Short: "measured path parameters for independent paths",
		Run: func(f Fidelity, seed int64) ([]Table, error) {
			return runPathParamTable("table2", "Measured video-stream parameters, independent paths",
				independentSettings, false, f, seed)
		},
	})
	register(Experiment{
		ID:    "table3",
		Paper: "Table 3",
		Short: "measured path parameters for correlated (shared-bottleneck) paths",
		Run: func(f Fidelity, seed int64) ([]Table, error) {
			return runPathParamTable("table3", "Measured video-stream parameters, correlated paths",
				correlatedSettings, true, f, seed)
		},
	})
}

func runTable1(Fidelity, int64) ([]Table, error) {
	t := Table{
		ID:      "table1",
		Title:   "Configurations of the bottleneck link",
		Columns: []string{"Config.", "FTP flows", "HTTP flows", "Prop. delay (ms)", "B.w. (Mbps)", "Buffer (pkts)"},
	}
	for i, c := range Table1Configs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d", c.FTPFlows),
			fmt.Sprintf("%d", c.HTTPFlows),
			fmt.Sprintf("%g", c.DelayMs),
			fmt.Sprintf("%g", c.Mbps),
			fmt.Sprintf("%d", c.BufPkts),
		})
	}
	t.Notes = []string{"inputs reproduced verbatim from the paper"}
	return []Table{t}, nil
}

// runPathParamTable regenerates Table 2 or Table 3: run the validation
// topology for each setting and report the measured per-path loss rate, RTT,
// timeout ratio and the playback rate.
func runPathParamTable(id, title string, settings []setting, correlated bool, f Fidelity, seed int64) ([]Table, error) {
	duration, runs := validationScale(f)
	t := Table{
		ID:      id,
		Title:   title,
		Columns: []string{"Setting", "p1", "p2", "R1 (ms)", "R2 (ms)", "TO1", "TO2", "mu (pkts ps)"},
	}
	for _, st := range settings {
		var agg [2]videoPathStats
		for r := 0; r < runs; r++ {
			run, err := runValidationSimVar(st.links(), correlated, st.mu, duration, seed+int64(r)*101, simVariant{})
			if err != nil {
				return nil, fmt.Errorf("setting %s run %d: %w", st.name, r, err)
			}
			for k := 0; k < 2; k++ {
				agg[k].P += run.stats[k].P
				agg[k].R += run.stats[k].R
				agg[k].TO += run.stats[k].TO
			}
		}
		for k := 0; k < 2; k++ {
			agg[k].P /= float64(runs)
			agg[k].R /= float64(runs)
			agg[k].TO /= float64(runs)
		}
		t.Rows = append(t.Rows, []string{
			st.name,
			fmt.Sprintf("%.3f", agg[0].P),
			fmt.Sprintf("%.3f", agg[1].P),
			fmt.Sprintf("%.0f", agg[0].R*1e3),
			fmt.Sprintf("%.0f", agg[1].R*1e3),
			fmt.Sprintf("%.1f", agg[0].TO),
			fmt.Sprintf("%.1f", agg[1].TO),
			fmt.Sprintf("%g", st.mu),
		})
	}
	t.Notes = []string{
		fmt.Sprintf("averaged over %d runs of %g-second videos", runs, duration),
		"paper's Table 2 ranges: p 0.023-0.053, R 80-210 ms, TO 1.6-3.3",
	}
	return []Table{t}, nil
}
