// Command benchmark is the repository's benchmark: four open-loop
// streaming workloads, measured end to end with tracing off and layer by
// layer in a separate traced run. BENCHMARK.json at the checkout root
// names it; README.md explains it.
//
//	benchmark/run.sh --workload fanout_steady --seed 1 --seconds 20 --trace 0
//	benchmark/run.sh                 # every workload, untraced then traced
//	benchmark/run.sh -selfcheck      # the untraced set twice, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all of them, untraced and traced)")
		seed      = flag.Int64("seed", 1, "seed for tokens, subscriber placement, churn and congestion phase")
		seconds   = flag.Float64("seconds", 20, "length of the measured window")
		traced    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out       = flag.String("out", filepath.Join(".bench_build", "trace"), "directory for a traced run's trace.json and pprof files")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced set twice and fail if any end-to-end metric moves by more than its bound")
		verbose   = flag.Bool("v", false, "also print the per-slice values the reported ones are taken over")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traced == 1, *out, *selfcheck, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool, out string, selfcheck bool, verbose bool) error {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if seconds < 1 || seconds > 60 {
		return fmt.Errorf("-seconds %v outside 1..60", seconds)
	}
	d := time.Duration(seconds * float64(time.Second))
	env, _ := json.Marshal(environment(seed, seconds))
	fmt.Printf("ENV %s\n", env)

	one := func(name string, traced bool) (result, line, error) {
		var res result
		var err error
		want, kind := sp.EndToEnd, "end to end, tracing off"
		if traced {
			want, kind = sp.PerLayer, "per layer, traced"
			res, err = runTraced(name, fullShape, seed, d, filepath.Join(out, name))
		} else {
			res, err = runUntraced(name, fullShape, seed, d)
		}
		if err != nil {
			return res, line{}, err
		}
		printResult(os.Stdout, res, sp, want, kind)
		if verbose {
			for name, vals := range res.Slices {
				fmt.Printf("  per slice %-20s %.4g\n", name, vals)
			}
		}
		ln, err := resultLine(res, want)
		return res, ln, err
	}

	switch {
	case selfcheck:
		return selfCheck(sp, func(name string) (result, error) {
			res, _, err := one(name, false)
			return res, err
		})
	case workload != "":
		// One run has 180 s; nothing in it should come near. If something
		// hangs, say where and fail instead of hanging the caller.
		watchdog := time.AfterFunc(150*time.Second, func() {
			fmt.Fprintln(os.Stderr, "benchmark: run exceeded 150 s; goroutines:")
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			os.Exit(3)
		})
		defer watchdog.Stop()
		_, ln, err := one(workload, traced)
		if err != nil {
			return err
		}
		data, err := json.Marshal(ln)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", data)
		if !ln.Correct {
			return fmt.Errorf("%s: correctness checks failed", workload)
		}
		return nil
	}
	ok := true
	for _, name := range workloads {
		for _, tr := range []bool{false, true} {
			_, ln, err := one(name, tr)
			if err != nil {
				return err
			}
			data, _ := json.Marshal(ln)
			fmt.Printf("RESULT %s trace=%v %s\n", name, tr, data)
			ok = ok && ln.Correct
		}
	}
	if !ok {
		return fmt.Errorf("correctness checks failed")
	}
	return nil
}

// selfCheck runs every workload's end-to-end set twice on this binary and
// fails if any metric's second value is worse than its first by more than
// the metric's own bound — the benchmark's test of itself.
func selfCheck(sp *spec, runOne func(string) (result, error)) error {
	failed := 0
	for _, name := range workloads {
		var runs [2]result
		for i := range runs {
			var err error
			if runs[i], err = runOne(name); err != nil {
				return err
			}
			if len(runs[i].Bad) > 0 {
				failed++
			}
		}
		fmt.Printf("\n%s — selfcheck\n", name)
		for _, m := range sp.EndToEnd {
			a, b := runs[0].Metrics[m.Name], runs[1].Metrics[m.Name]
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "OUTSIDE BOUND"
				failed++
			}
			fmt.Printf("  %-20s %14.4f %14.4f  worse by %+7.2f %%  bound %5.1f %%  %s\n", m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d metrics or runs outside their bounds", failed)
	}
	return nil
}
