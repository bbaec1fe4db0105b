// Command dmptrace analyzes a recorded streaming trace (written by
// dmpplay -dump or dmpstream.Trace.WriteCSV): late-packet fractions across
// startup delays, the exact required delay for a quality target, delivery
// slack quantiles, per-path goodput and reordering.
//
// Usage:
//
//	dmptrace -in session.csv
//	dmptrace -in session.csv -quality 1e-3 -paths 2
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dmpstream"
	"dmpstream/internal/core"
)

func main() {
	var (
		in      = flag.String("in", "", "trace CSV file (required)")
		quality = flag.Float64("quality", 1e-4, "late-fraction target for the required-delay report")
		paths   = flag.Int("paths", 2, "number of paths for per-path reports")
	)
	flag.Parse()
	switch {
	case *in == "":
		usage("-in is required")
	case *paths < 1:
		usage(fmt.Sprintf("-paths %d: want at least 1", *paths))
	case !(*quality >= 0 && *quality <= 1):
		usage(fmt.Sprintf("-quality %g: want a late fraction in [0, 1]", *quality))
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	trace, err := core.ReadTraceCSV(f)
	_ = f.Close()
	if err != nil {
		fatal(err)
	}
	report(trace, *quality, *paths)
}

func report(trace *dmpstream.Trace, quality float64, paths int) {
	fmt.Printf("stream: mu=%g pkts/s, payload %d B, %d packets expected, %d arrivals recorded\n",
		trace.Mu, trace.PayloadSize, trace.Expected, len(trace.Arrivals))
	fmt.Printf("cross-path reorderings: %d\n\n", trace.ReorderCount())

	fmt.Printf("%-10s %-22s %s\n", "tau (s)", "late (playback order)", "late (arrival order)")
	for _, tau := range []float64{1, 2, 4, 6, 8, 10, 15, 20} {
		pb, ao := trace.LateFraction(tau)
		fmt.Printf("%-10g %-22.3g %.3g\n", tau, pb, ao)
	}
	fmt.Println()

	if d, ok := trace.RequiredDelay(quality); ok {
		fmt.Printf("startup delay for late fraction < %g: %v\n", quality, d.Round(time.Millisecond))
	} else {
		fmt.Printf("late fraction < %g unattainable: missing packets exceed the budget\n", quality)
	}
	fmt.Printf("delivery slack quantiles: p50=%.3fs p90=%.3fs p99=%.3fs\n",
		trace.SlackQuantile(0.50), trace.SlackQuantile(0.90), trace.SlackQuantile(0.99))

	gp := trace.PathGoodput(paths)
	counts := trace.PathCounts(paths)
	for k := 0; k < paths; k++ {
		fmt.Printf("path %d: %d packets, %.1f pkts/s goodput\n", k, counts[k], gp[k])
	}
}

// usage reports a flag no trace can be analysed with and exits 2.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "dmptrace:", msg)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmptrace:", err)
	os.Exit(1)
}
