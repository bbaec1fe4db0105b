// Command dmprelay runs a WAN-emulation TCP relay: it forwards connections
// to a backend through a link serialized at a configured rate, a
// propagation delay, and optional random congestion episodes. Use it to
// test DMP-streaming (or any TCP application) over controlled path
// conditions.
//
// Naming note: despite the name, dmprelay is a network *impairment* relay
// (an emunet path emulator), not a stream distribution relay. The edge
// relay that joins an upstream hub and re-fans the stream to downstream
// subscribers is the dmpedge command.
//
// Example:
//
//	dmprelay -listen :9001 -backend server:9101 -rate 100 -delay 40ms &
//	dmprelay -listen :9002 -backend server:9102 -rate 30  -delay 120ms -episodes &
//	dmpplay -connect localhost:9001,localhost:9002
//
// A -faults script injects scheduled path failures (offsets from startup):
// drop resets every live connection (RST), stall/unstall blackholes the
// relay while keeping connections open, sever closes them cleanly (FIN).
// The listener survives every fault, so redials get fresh connections:
//
//	dmprelay -listen :9002 -backend server:9102 -faults 'sever@5s,stall@20s,unstall@25s'
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"time"

	"dmpstream/internal/emunet"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:9001", "listen address")
		backend  = flag.String("backend", "", "backend address to forward to (required)")
		rateKBps = flag.Float64("rate", 0, "forwarding rate in KiB/s (0 = unlimited)")
		delay    = flag.Duration("delay", 0, "one-way propagation delay")
		buffer   = flag.Int("buffer", 64, "relay buffering in KiB")
		down     = flag.Bool("downstream", false, "impair the backend→client direction (for hub subscribers)")
		episodes = flag.Bool("episodes", false, "enable random congestion episodes")
		epRate   = flag.Float64("episode-rate", 0.1, "episodes per second")
		epDur    = flag.Duration("episode-duration", 2*time.Second, "mean episode duration")
		epFactor = flag.Float64("episode-factor", 0.1, "rate multiplier during an episode")
		seed     = flag.Int64("seed", 1, "episode process seed")
		faults   = flag.String("faults", "", "scheduled fault script, e.g. 'drop@5s,stall@20s,unstall@25s,sever@40s'")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"Usage of dmprelay (WAN-emulation impairment relay):\n"+
				"  note: for the stream *distribution* edge relay (upstream hub -> local fan-out),\n"+
				"  use dmpedge instead.\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *backend == "" {
		fmt.Fprintln(os.Stderr, "dmprelay: -backend is required")
		os.Exit(2)
	}

	cfg := emunet.PathConfig{
		RateBps:    *rateKBps * 1024,
		Delay:      *delay,
		BufferKiB:  *buffer,
		Seed:       *seed,
		Downstream: *down,
	}
	if *episodes {
		cfg.EpisodeRate = *epRate
		cfg.EpisodeDuration = *epDur
		cfg.EpisodeFactor = *epFactor
	}
	events, err := emunet.ParseFaultScript(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmprelay:", err)
		os.Exit(2)
	}

	relay, err := emunet.Listen(*listen, *backend, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmprelay:", err)
		// A socket error is the host's; anything else is a flag value no
		// path can have (-rate -5, -delay -1s, ...).
		if errors.As(err, new(*net.OpError)) {
			os.Exit(1)
		}
		os.Exit(2)
	}
	fmt.Printf("relaying %s -> %s (rate %v KiB/s, delay %v, episodes %v)\n",
		relay.Addr(), *backend, *rateKBps, *delay, *episodes)
	if len(events) > 0 {
		tl := relay.Schedule(events)
		defer tl.Stop()
		fmt.Printf("fault timeline armed: %s\n", emunet.FormatFaultScript(events))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	_ = relay.Close()
	fmt.Printf("forwarded %d bytes\n", relay.BytesForwarded.Load())
}
