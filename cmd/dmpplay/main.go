// Command dmpplay receives a DMP-streaming session over multiple TCP paths
// and reports late-packet statistics for a range of startup delays.
//
// Against the classic one-client server (one listen address per path):
//
//	dmpplay -connect 127.0.0.1:9001,127.0.0.1:9002 -delays 2,4,6,8,10
//
// Against a broadcast hub (dmpserve), -stream performs the join handshake:
// every connection carries the stream id and a shared subscriber token, so
// all paths attach to the same subscription. The addresses may repeat the
// hub address or point at relays/interfaces routing to it:
//
//	dmpplay -connect server:9000,server:9000 -stream live
//
// With -redial (hub mode only), a path that dies mid-stream is redialed
// under capped exponential backoff and re-attached to the same subscription:
//
//	dmpplay -connect server:9000,server:9000 -stream live \
//	        -redial 500ms -redial-max 10s -redial-budget 8
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"dmpstream"
)

func main() {
	var (
		connect    = flag.String("connect", "127.0.0.1:9001,127.0.0.1:9002", "comma-separated server addresses, one per path")
		stream     = flag.String("stream", "", "join this hub stream id (empty = classic single-client server)")
		delays     = flag.String("delays", "2,4,6,8,10", "startup delays (seconds) to analyze")
		dump       = flag.String("dump", "", "save the trace as CSV for dmptrace")
		redial     = flag.Duration("redial", 0, "redial dead paths after this base backoff (0 = off; requires -stream)")
		redialMax  = flag.Duration("redial-max", 10*time.Second, "backoff cap for -redial")
		redialBudg = flag.Int("redial-budget", 0, "max redials per path (0 = unlimited)")
		redialJit  = flag.Float64("redial-jitter", 0, "fraction of each backoff delay randomized, in [0,1]")
		redialSeed = flag.Int64("redial-seed", 1, "jitter seed (per-path RNG seeded with seed+path)")
	)
	flag.Parse()

	addrs := strings.Split(*connect, ",")
	for i, addr := range addrs {
		addrs[i] = strings.TrimSpace(addr)
	}

	var trace *dmpstream.Trace
	var err error
	if *redial > 0 {
		if *stream == "" {
			fatal(fmt.Errorf("-redial needs -stream: only a hub subscription survives a re-attach"))
		}
		client, cerr := dmpstream.NewStreamClient(addrs, *stream, dmpstream.RedialPolicy{
			Base:   *redial,
			Max:    *redialMax,
			Budget: *redialBudg,
			Jitter: *redialJit,
			Seed:   *redialSeed,
		})
		if cerr != nil {
			fatal(cerr)
		}
		client.OnPathUp = func(path, attempt int) {
			if attempt == 0 {
				fmt.Printf("path %d: connected to %s\n", path, addrs[path])
			} else {
				fmt.Printf("path %d: re-attached to %s (redial %d)\n", path, addrs[path], attempt)
			}
		}
		client.OnPathDown = func(path int, err error) {
			fmt.Printf("path %d: down: %v\n", path, err)
		}
		fmt.Printf("joining stream %q over %d paths with redial (base %v)\n", *stream, len(addrs), *redial)
		trace, err = client.Run()
	} else {
		conns := make([]net.Conn, len(addrs))
		for i, addr := range addrs {
			conn, derr := net.Dial("tcp", addr)
			if derr != nil {
				fatal(derr)
			}
			conns[i] = conn
			fmt.Printf("path %d: connected to %s\n", i, addr)
		}
		if *stream != "" {
			token, jerr := dmpstream.JoinStream(conns, *stream)
			if jerr != nil {
				fatal(jerr)
			}
			fmt.Printf("joined stream %q as subscriber %s over %d paths\n", *stream, token[:8], len(conns))
		}
		trace, err = dmpstream.Receive(conns)
		for _, c := range conns {
			_ = c.Close()
		}
	}
	if err != nil {
		fatal(err)
	}

	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace saved to %s\n", *dump)
	}

	fmt.Printf("received %d of %d packets (rate %g pkts/s, payload %dB)\n",
		len(trace.Arrivals), trace.Expected, trace.Mu, trace.PayloadSize)
	if trace.Duplicates > 0 {
		fmt.Printf("duplicate retransmissions discarded: %d\n", trace.Duplicates)
	}
	fmt.Printf("cross-path reorderings: %d\n", trace.ReorderCount())
	fmt.Printf("per-path arrivals: %v\n", trace.PathCounts(len(addrs)))
	fmt.Printf("%-10s %-22s %s\n", "tau (s)", "late (playback order)", "late (arrival order)")
	for _, s := range strings.Split(*delays, ",") {
		tau, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fatal(err)
		}
		pb, ao := trace.LateFraction(tau)
		fmt.Printf("%-10g %-22.3g %.3g\n", tau, pb, ao)
	}

	if d, ok := trace.RequiredDelay(1e-4); ok {
		fmt.Printf("startup delay for <1e-4 late: %v\n", d.Round(time.Millisecond))
	} else {
		fmt.Println("startup delay for <1e-4 late: unattainable (missing packets)")
	}
	fmt.Printf("delivery slack p50/p99: %.3fs / %.3fs\n",
		trace.SlackQuantile(0.50), trace.SlackQuantile(0.99))
	fmt.Printf("per-path goodput (pkts/s): %v\n", roundAll(trace.PathGoodput(len(addrs))))
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*10)) / 10
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmpplay:", err)
	os.Exit(1)
}
