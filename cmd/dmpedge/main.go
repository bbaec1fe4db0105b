// Command dmpedge runs a fault-tolerant edge relay: it joins an upstream
// hub (dmpserve, or another dmpedge) as an ordinary multipath subscriber
// and re-fans the received stream through a local hub to downstream
// subscribers — the building block of a relay tree, where the origin
// serves a handful of relays instead of every leaf directly.
//
// The upstream list is a ranked candidate set reaching the same feed; a
// path that dies rotates to the next candidate with capped backoff, and
// the subscription token is preserved across failovers (and restarts via
// -token), so the upstream replays its resend window instead of gapping
// the stream. If every candidate stays dead past -orphan-grace, the relay
// declares the feed lost: live subscribers get a clean end marker and new
// joiners a typed upstream-lost reject.
//
// Usage:
//
//	dmpserve -listen :9000 -stream live -rate 50 &
//	dmpedge  -listen :9100 -upstreams origin:9000,origin-alt:9000 -stream live
//	dmpplay  -connect edge:9100,edge:9100 -stream live
//
// An interrupt drains the cascade gracefully: upstream detach first, then
// the local ring flushes and every downstream path gets an end marker.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dmpstream/internal/hub"
	"dmpstream/internal/relay"
	"dmpstream/internal/wire"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:9100", "downstream listen address")
		upstreams = flag.String("upstreams", "", "ranked upstream candidates, comma-separated (required)")
		stream    = flag.String("stream", "live", "stream id to subscribe and serve")
		paths     = flag.Int("paths", 2, "upstream path connections")
		tokenHex  = flag.String("token", "", "upstream subscription token, 32 hex chars (empty = random; reuse to re-attach after a restart)")
		orphan    = flag.Duration("orphan-grace", relay.DefaultOrphanGrace, "how long to tolerate zero live upstream paths before declaring the feed lost")
		reorder   = flag.Int("reorder-window", relay.DefaultReorderWindow, "upstream reorder span: a gap is abandoned once a packet arrives more than this many sequences past it")
		lag       = flag.Int("lag", 0, "local ring size in packets (0 = hub default)")
		maxSubs   = flag.Int("max-subs", 0, "downstream subscriber cap (0 = unlimited)")
		maxConns  = flag.Int("max-conns", 0, "downstream connection cap (0 = unlimited)")
		maxBytes  = flag.Int64("max-bytes", 0, "downstream buffered-bytes budget (0 = unlimited)")
		drain     = flag.Duration("drain", 15*time.Second, "graceful drain deadline on interrupt")
		verbose   = flag.Bool("v", false, "log relay state transitions and failovers")
	)
	flag.Parse()
	if *upstreams == "" {
		fmt.Fprintln(os.Stderr, "dmpedge: -upstreams is required")
		os.Exit(2)
	}
	var ups []string
	for _, u := range strings.Split(*upstreams, ",") {
		if u = strings.TrimSpace(u); u != "" {
			ups = append(ups, u)
		}
	}

	cfg := relay.Config{
		Upstreams:     ups,
		StreamID:      *stream,
		Paths:         *paths,
		OrphanGrace:   *orphan,
		ReorderWindow: *reorder,
		Hub: hub.Config{
			LagWindow:      *lag,
			MaxSubscribers: *maxSubs,
			MaxConns:       *maxConns,
			MaxBytes:       *maxBytes,
		},
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	if *tokenHex != "" {
		raw, err := hex.DecodeString(*tokenHex)
		if err != nil || len(raw) != len(wire.Token{}) {
			fmt.Fprintf(os.Stderr, "dmpedge: -token must be %d hex chars\n", 2*len(wire.Token{}))
			os.Exit(2)
		}
		copy(cfg.Token[:], raw)
	}

	r, err := relay.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmpedge: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("dmpedge: stream %q via %v, token %s\n", *stream, ups, r.Token())

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmpedge: listen: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("dmpedge: serving on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		st := r.Stats()
		fmt.Printf("dmpedge: draining (state %v, forwarded %d, failovers %d)...\n",
			st.State, st.Forwarded, st.Failovers)
		if r.Drain(*drain) {
			fmt.Println("dmpedge: drained cleanly")
		} else {
			fmt.Println("dmpedge: drain deadline exceeded, closing")
		}
		r.Close()
		_ = ln.Close()
	}()

	err = r.Serve(ln)
	st := r.Stats()
	fmt.Printf("dmpedge: done: state=%v forwarded=%d lateDrops=%d gapSkips=%d failovers=%d\n",
		st.State, st.Forwarded, st.LateDrops, st.GapSkips, st.Failovers)
	if err != nil && !strings.Contains(err.Error(), "use of closed network connection") {
		fmt.Fprintf(os.Stderr, "dmpedge: %v\n", err)
		os.Exit(1)
	}
}
