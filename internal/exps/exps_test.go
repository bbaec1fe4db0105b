package exps

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3",
		"fig4a", "fig4b", "fig5a", "fig5b", "correlated",
		"fig7a", "fig7b",
		"fig8", "fig9a", "fig9b", "fig10", "fig11",
		"toy73",
		"extk", "extstored", "extq1", "toy73sim",
		"ablation-td", "ablation-sndbuf", "ablation-flavor", "ablation-red",
	}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	for _, e := range All() {
		if e.Paper == "" || e.Short == "" || e.Run == nil {
			t.Errorf("experiment %q incompletely described", e.ID)
		}
	}
}

func TestFindIsCaseInsensitive(t *testing.T) {
	if _, ok := Find("FIG8"); !ok {
		t.Error("upper-case lookup failed")
	}
	if _, ok := Find("nonsense"); ok {
		t.Error("bogus id found")
	}
}

func TestParseFidelity(t *testing.T) {
	for s, want := range map[string]Fidelity{"quick": Quick, "full": Full, "": Quick, "FULL": Full} {
		got, err := ParseFidelity(s)
		if err != nil || got != want {
			t.Errorf("ParseFidelity(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFidelity("medium"); err == nil {
		t.Error("bad fidelity accepted")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tables, err := runTable1(Quick, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Paper's Table 1, row 3: 19 FTP, 40 HTTP, 40ms, 5.0 Mbps, 50 pkts.
	if rows[2][1] != "19" || rows[2][2] != "40" || rows[2][3] != "40" || rows[2][4] != "5" || rows[2][5] != "50" {
		t.Fatalf("config 3 row = %v", rows[2])
	}
}

func TestTableFormat(t *testing.T) {
	tb := Table{ID: "x", Title: "t", Columns: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	var sb strings.Builder
	tb.Format(&sb)
	out := sb.String()
	for _, frag := range []string{"== x: t ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, frag) {
			t.Errorf("formatted table missing %q:\n%s", frag, out)
		}
	}
}

// simPin is a validation run's record, captured before the simulator wrote a
// core.Trace: late fractions in both orders at τ = 4, 6, 8, 10 s, the startup
// delay for 1% late, and the packets each path fetched. A change that moves
// any of them moves the paper's Figs 4–5 and Tables 2–3.
type simPin struct {
	playback, arrival [4]float64
	delay             time.Duration
	counts            []int64
}

func checkSimPin(t *testing.T, run *simRun, want simPin) {
	t.Helper()
	tr := run.stream.Trace()
	for i, tau := range []float64{4, 6, 8, 10} {
		if pb, ao := tr.LateFraction(tau); pb != want.playback[i] || ao != want.arrival[i] {
			t.Errorf("tau=%v: late %v/%v, pinned %v/%v", tau, pb, ao, want.playback[i], want.arrival[i])
		}
	}
	if d, ok := tr.RequiredDelay(0.01); !ok || d != want.delay {
		t.Errorf("delay for 1%% late %v (ok=%v), pinned %v", d, ok, want.delay)
	}
	if counts := run.stream.PathCounts(); !slices.Equal(counts, want.counts) {
		t.Errorf("path counts %v, pinned %v", counts, want.counts)
	}
	if missing := tr.Missing(); len(missing) != 0 {
		t.Errorf("TCP reliability violated: %d of %d packets missing", len(missing), tr.Expected)
	}
}

func TestValidationSimMeasurementsInPaperRange(t *testing.T) {
	st := settingByName("2-2", independentSettings)
	run, err := runValidationSimVar(st.links(), false, st.mu, 300, 5, simVariant{})
	if err != nil {
		t.Fatal(err)
	}
	for k, st := range run.stats {
		if st.P < 0.003 || st.P > 0.09 {
			t.Errorf("path %d loss-event rate %v outside plausible range", k, st.P)
		}
		if st.R < 0.05 || st.R > 0.4 {
			t.Errorf("path %d RTT %v outside plausible range", k, st.R)
		}
		if st.TO < 1 || st.TO > 5 {
			t.Errorf("path %d timeout ratio %v outside plausible range", k, st.TO)
		}
	}
	checkSimPin(t, run, simPin{
		playback: [4]float64{0.11646666666666666, 0.08653333333333334, 0.044866666666666666, 0.003533333333333333},
		arrival:  [4]float64{0.11126666666666667, 0.08653333333333334, 0.044533333333333334, 0.0023333333333333335},
		delay:    9692575329,
		counts:   []int64{7679, 7321},
	})
}

func TestCorrelatedSimBothFlowsSimilar(t *testing.T) {
	st := settingByName("2", correlatedSettings)
	run, err := runValidationSimVar(st.links(), true, st.mu, 300, 6, simVariant{})
	if err != nil {
		t.Fatal(err)
	}
	// Sharing one bottleneck, the two flows must measure similar parameters
	// (the paper's Table 3 shows near-identical columns).
	r0, r1 := run.stats[0].R, run.stats[1].R
	if r0/r1 > 1.2 || r1/r0 > 1.2 {
		t.Errorf("correlated paths measured very different RTTs: %v vs %v", r0, r1)
	}
	checkSimPin(t, run, simPin{
		playback: [4]float64{0.1544, 0.009333333333333334, 0, 0},
		arrival:  [4]float64{0.1534, 0.0108, 0, 0},
		delay:    5963888026,
		counts:   []int64{7586, 7414},
	})
}

// TestSimModelVerdict pins the fig4b/fig5b/correlated match column. The
// rows are taken from committed quick seed-1 tables.
func TestSimModelVerdict(t *testing.T) {
	for _, c := range []struct {
		simMean, simCI, modelF, modelCI float64
		want                            string
	}{
		{0.1799, 0.1241, 0.1391, 0.005, "within CI"},  // fig4b tau=4
		{0.0112, 0.0220, 1.25e-5, 1e-5, "unresolved"}, // fig4b tau=10: sim CI spans zero
		{0.0747, 0.0747, 0.0426, 0.002, "unresolved"}, // half-width equal to the mean
		{0.1, 0.01, 0.1, 0.2, "unresolved"},           // the model side spans zero
		{0.7891, 0.0548, 0.8594, 0.01, "within 10x"},  // correlated-1 tau=4
		{0.2624, 0.1301, 0.0204, 0.001, "no"},         // correlated-2 tau=8
		{0, 0, 8.10e-3, 1e-4, "no"},                   // correlated-3 tau=7
		{0, 0, 2.43e-4, 1e-5, "both small"},           // correlated-3 tau=10
		{0, 0, 0, 0, "within CI"},                     // correlated-4: nothing late on either side
		{0.05, 0.01, 0.05, 0, "within CI"},            // a model CI of 0 (too few batches) is resolved
	} {
		if got := simModelVerdict(c.simMean, c.simCI, c.modelF, c.modelCI); got != c.want {
			t.Errorf("simModelVerdict(%g, %g, %g, %g) = %q, want %q",
				c.simMean, c.simCI, c.modelF, c.modelCI, got, c.want)
		}
	}
}

func TestToy73ClaimHolds(t *testing.T) {
	tables, err := runToy73(Quick, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 5 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[4] != "true" {
			t.Errorf("DMP<=single violated at x/mu=%s: %v", row[0], row)
		}
		fSingle, _ := strconv.ParseFloat(strings.ReplaceAll(row[1], "e", "E"), 64)
		if fSingle <= 0 {
			t.Errorf("single-path late fraction should be positive at tau<half-period: %v", row)
		}
	}
}

func TestFig8Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("several seconds of Monte-Carlo")
	}
	tables, err := runFig8(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Columns) != 6 || len(tb.Rows) != 15 {
		t.Fatalf("fig8 shape %dx%d", len(tb.Rows), len(tb.Columns))
	}
	// At tau=10s the late fraction must improve from ratio 1.2 to 2.0.
	var row10 []string
	for _, r := range tb.Rows {
		if r[0] == "10" {
			row10 = r
		}
	}
	f12 := parseF(t, row10[1])
	f20 := parseF(t, row10[5])
	if f20 >= f12 {
		t.Errorf("fig8: f(ratio 2.0)=%v not below f(ratio 1.2)=%v at tau=10", f20, f12)
	}
	if f12 < 0.01 {
		t.Errorf("fig8: ratio 1.2 should show substantial lateness, got %v", f12)
	}
}

func TestFig9aStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("several seconds of Monte-Carlo")
	}
	tables, err := runFig9a(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	if !strings.Contains(tb.Rows[0][1], "omitted") {
		t.Errorf("p=0.004, mu=25 cell should be omitted like the paper's: %v", tb.Rows[0])
	}
	// Every populated cell should report a finite required delay.
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			if strings.Contains(cell, ">max") {
				t.Errorf("required delay did not converge: %v", row)
			}
		}
	}
}

func TestEmuScenarioSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock streaming")
	}
	sc := emuScenario{
		name: "smoke", mu: 100, payload: 300,
		rate:     [2]float64{80e3, 40e3},
		delay:    [2]time.Duration{10 * time.Millisecond, 30 * time.Millisecond},
		epPeriod: 10 * time.Second, epDur: 2 * time.Second, epFactor: 0.5,
	}
	tr, err := runEmuScenario(sc, 6*time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Expected == 0 || int64(len(tr.Arrivals)) != tr.Expected {
		t.Fatalf("incomplete trace: %d/%d", len(tr.Arrivals), tr.Expected)
	}
	if pb, _ := tr.LateFraction(30); pb != 0 {
		t.Errorf("late at tau=30s on a 6s stream: %v", pb)
	}
}

func TestEmuModelDerivation(t *testing.T) {
	m, err := emuModel(emuScenarios[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 2 {
		t.Fatal("wrong path count")
	}
	for _, p := range m.Paths {
		if p.P <= 0 || p.P >= 0.5 {
			t.Errorf("derived loss rate %v implausible", p.P)
		}
	}
	agg, err := m.AggregateThroughput()
	if err != nil {
		t.Fatal(err)
	}
	// Derived model throughput should be near the configured relay budget.
	ratio := agg / m.Mu
	if ratio < 1.0 || ratio > 3.0 {
		t.Errorf("derived sigma_a/mu = %v, expected mildly overprovisioned", ratio)
	}
}

func TestFluidPathRate(t *testing.T) {
	p := fluidPath{on: 10, period: 10}
	if p.rate(2) != 10 || p.rate(7) != 0 || p.rate(12) != 10 {
		t.Fatal("on/off schedule wrong")
	}
	shifted := fluidPath{on: 10, period: 10, phase: 5}
	if shifted.rate(2) != 0 || shifted.rate(7) != 10 {
		t.Fatal("phase shift wrong")
	}
}

func TestFluidConservation(t *testing.T) {
	// With ample always-on capacity nothing is late.
	f := fluidLateFraction([]fluidPath{{on: 100, period: 10}, {on: 100, period: 10, phase: 5}}, 20, 1, 200)
	if f != 0 {
		t.Fatalf("late fraction %v with 5x capacity", f)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	if s == "0" {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("unparseable fraction %q", s)
	}
	return v
}
