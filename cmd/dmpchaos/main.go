// Command dmpchaos soaks the broadcast stack under a seeded schedule of
// joins, abrupt leaves, overload bursts, path faults and relay kills, and
// fails loudly if any robustness invariant breaks: untyped join failures,
// byte-budget overruns, lost or corrupted packets for conserving
// subscribers, drain misses, or leaked goroutines.
//
// The topology is -streams live streams on an origin registry with -depth
// relay tiers under stream 0; every flag means the same in every topology:
//
//	dmpchaos -seed 1 -duration 30s              # one hub
//	dmpchaos -streams 4 -seed 1 -duration 30s   # a registry, the last stream ended mid-run
//	dmpchaos -depth 2 -seed 1 -duration 30s     # a two-tier relay tree, relay kills
//
// A failing run reproduces from the command it prints. -report writes the
// whole report as JSON (the CI artifact). The nightly CI soak runs all
// three under the race detector.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"dmpstream/internal/chaos"
)

func main() {
	cfg := chaos.Config{}
	flag.Int64Var(&cfg.Seed, "seed", 1, "random seed driving the whole schedule (0 = derive from time)")
	flag.DurationVar(&cfg.Duration, "duration", 30*time.Second, "length of the schedule")
	flag.IntVar(&cfg.Streams, "streams", 1, "live streams on the origin registry (more than 1: the last ends mid-run)")
	flag.IntVar(&cfg.Depth, "depth", 0, "relay tiers under stream 0")
	flag.Int64Var(&cfg.MaxBytes, "max-bytes", 96<<10, "each origin stream's resource-governor budget in bytes (-1 = unlimited)")
	report := flag.String("report", "", "write the JSON report to this file")
	verbose := flag.Bool("v", false, "log every event and violation as it happens")
	flag.Parse()
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) }
	}
	fmt.Printf("dmpchaos: seed=%d duration=%v streams=%d depth=%d max-bytes=%d\n",
		cfg.Seed, cfg.Duration, cfg.Streams, cfg.Depth, cfg.MaxBytes)
	rep, err := chaos.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmpchaos: setup failed (seed %d): %v\n", cfg.Seed, err)
		os.Exit(2)
	}

	fmt.Printf("events=%d faults=%d kills=%d joins=%d leaves=%d rejected=%d drained=%v\n",
		rep.Events, rep.Faults, rep.Kills, rep.Joins, rep.Leaves, rep.Rejected, rep.Drained)
	for _, ss := range rep.Final.Streams {
		fmt.Printf("stream %s: generated=%d sent=%d dropped=%d shed=%d evicted=%d resent=%d reattached=%d bytesHeld=%d\n",
			ss.ID, ss.Hub.Generated, ss.Hub.Sent, ss.Hub.Dropped, ss.Hub.Shed, ss.Hub.Evicted,
			ss.Hub.Resent, ss.Hub.Reattached, ss.Hub.BytesHeld)
	}
	for _, rr := range rep.Relays {
		st := rr.Final
		fmt.Printf("%s: state=%v restarts=%d failovers=%d forwarded=%d lateDrops=%d gapSkips=%d sourceGaps=%d\n",
			rr.Name, st.State, rr.Restarts, st.Failovers, st.Forwarded, st.LateDrops, st.GapSkips, st.Hub.SourceGaps)
	}
	for _, v := range rep.Subscribers {
		status := "ok"
		if v.Err != "" {
			status = v.Err
		}
		fmt.Printf("%s: %d packets from #%d of %d (%s)\n", v.Name, v.Received, v.MinPkt, v.Expected, status)
	}
	fmt.Printf("goroutines: %d -> %d\n", rep.GoroutinesStart, rep.GoroutinesEnd)

	if *report != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*report, blob, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmpchaos: report: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("report written to %s\n", *report)
	}

	if len(rep.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "dmpchaos: %d violation(s) at seed %d:\n", len(rep.Violations), cfg.Seed)
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "  - %s\n", v)
		}
		fmt.Fprintf(os.Stderr, "reproduce: dmpchaos -seed %d -duration %v -streams %d -depth %d -max-bytes %d\n",
			cfg.Seed, cfg.Duration, cfg.Streams, cfg.Depth, cfg.MaxBytes)
		os.Exit(1)
	}
	fmt.Println("dmpchaos: all invariants held")
}
