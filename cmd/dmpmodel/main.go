// Command dmpmodel evaluates the analytical model of DMP-streaming for one
// parameter set: the predicted fraction of late packets at a startup delay,
// the required startup delay for a target quality, and the aggregate
// achievable throughput.
//
// Usage:
//
//	dmpmodel -paths 0.02:150:4,0.02:150:4 -mu 50 -tau 8
//	dmpmodel -paths 0.04:300:4,0.012:300:4 -mu 40 -threshold 1e-4
//
// Each path is loss:rtt_ms:timeout_ratio.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dmpstream"
)

func main() {
	var (
		pathSpec  = flag.String("paths", "0.02:150:4,0.02:150:4", "comma-separated loss:rtt_ms:TO per path")
		mu        = flag.Float64("mu", 50, "playback rate, packets per second")
		tau       = flag.Float64("tau", 0, "startup delay in seconds (prints fraction late)")
		threshold = flag.Float64("threshold", 0, "quality bar (prints required startup delay)")
		budget    = flag.Int64("budget", 2_000_000, "Monte-Carlo consumption budget")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	paths, err := parsePaths(*pathSpec)
	if err != nil {
		fatal(err)
	}
	m := dmpstream.Model{Paths: paths, PlaybackRate: *mu, Budget: *budget, Seed: *seed}
	if err := m.Validate(); err != nil {
		fatal(err)
	}

	agg, err := m.AggregateThroughput()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("paths: %d, mu = %g pkts/s\n", len(paths), *mu)
	for i, p := range paths {
		sigma, err := dmpstream.PathThroughput(p)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  path %d: p=%g rtt=%v TO=%g  sigma=%.1f pkts/s\n",
			i, p.LossRate, p.RTT, p.TimeoutRatio, sigma)
	}
	fmt.Printf("aggregate achievable throughput sigma_a = %.1f pkts/s (sigma_a/mu = %.2f)\n", agg, agg/(*mu))

	if *tau > 0 {
		f, err := m.FractionLate(time.Duration(*tau * float64(time.Second)))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fraction of late packets at tau=%gs: %.3g\n", *tau, f)
	}
	if *threshold > 0 {
		d, ok, err := m.RequiredStartupDelay(*threshold, 120*time.Second)
		if err != nil {
			fatal(err)
		}
		if !ok {
			fmt.Printf("no startup delay up to 120s achieves late fraction < %g\n", *threshold)
		} else {
			fmt.Printf("required startup delay for late fraction < %g: %v\n", *threshold, d)
		}
	}
	if *tau == 0 && *threshold == 0 {
		fmt.Println("(pass -tau or -threshold for performance predictions)")
	}
}

func parsePaths(spec string) ([]dmpstream.PathParams, error) {
	var out []dmpstream.PathParams
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("path %q: want loss:rtt_ms:TO", part)
		}
		loss, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("path %q: bad loss: %w", part, err)
		}
		rttMs, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("path %q: bad rtt: %w", part, err)
		}
		to, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("path %q: bad TO: %w", part, err)
		}
		out = append(out, dmpstream.PathParams{
			LossRate:     loss,
			RTT:          time.Duration(rttMs * float64(time.Millisecond)),
			TimeoutRatio: to,
		})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmpmodel:", err)
	os.Exit(1)
}
