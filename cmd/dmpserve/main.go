// Command dmpserve broadcasts live CBR sources to any number of multipath
// subscribers. It runs a single accept loop: each incoming TCP connection
// presents a join handshake naming a stream id and a subscriber token, and
// connections sharing a token form one multipath DMP session. Subscribers
// that stop keeping up are skipped ahead (drop-oldest) or disconnected
// (evict) once they lag more than the configured window.
//
// Several streams can be served at once behind the same listener: give
// -stream more than one id (repeat the flag or comma-separate) and joins
// are routed by the stream id in the handshake. Joins naming no stream get
// a typed unknown-stream reject. Every stream runs from the same template
// (-rate, -lag, -policy, the caps — all per stream).
//
// Usage:
//
//	dmpserve -listen 0.0.0.0:9000 -rate 50 -payload 1000 -count 0 \
//	         -stream live -lag 1024 -policy drop -stall 5s
//
//	dmpserve -listen 0.0.0.0:9000 -stream news,sports -stream music
//
// Overload protection caps admission and buffered bytes per stream, and an
// interrupt drains gracefully instead of cutting subscribers off:
//
//	dmpserve -listen 0.0.0.0:9000 -max-subs 100 -max-conns 400 \
//	         -max-bytes 33554432 -join-timeout 5s -drain 15s
//
// Pair with dmpplay joining one of the stream ids (possibly through
// different network interfaces or relays — that is the multipath):
//
//	dmpplay -connect server:9000,server:9000 -stream sports
//
// To scale beyond one machine's fan-out, put dmpedge relays in front:
// each edge relay joins this server as a single multipath subscriber
// (its join sets the absolute-numbering flag, so packet identity is
// preserved across tiers) and re-fans the stream locally.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dmpstream"
)

// streamList collects -stream values: the flag may be repeated and each
// value may be a comma-separated list of ids.
type streamList []string

func (s *streamList) String() string { return strings.Join(*s, ",") }

func (s *streamList) Set(v string) error {
	for _, id := range strings.Split(v, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			return fmt.Errorf("empty stream id in %q", v)
		}
		for _, have := range *s {
			if have == id {
				return fmt.Errorf("duplicate stream id %q", id)
			}
		}
		*s = append(*s, id)
	}
	return nil
}

func main() {
	var streams streamList
	var (
		listen  = flag.String("listen", "127.0.0.1:9000", "accept-loop listen address")
		rate    = flag.Float64("rate", 50, "packets per second, per stream")
		payload = flag.Int("payload", 1000, "payload bytes per packet")
		count   = flag.Int64("count", 0, "packets to stream per stream (0 = until interrupted)")
		lag     = flag.Int("lag", 1024, "max packets a subscriber may lag before the policy applies")
		policy  = flag.String("policy", "drop", "slow-subscriber policy: drop (skip ahead) or evict")
		stall   = flag.Duration("stall", 0, "per-path write stall timeout (0 = block forever)")
		sndbuf  = flag.Int("sndbuf", 0, "per-path TCP send buffer bytes (0 = kernel default; small values make backpressure prompt)")
		grace   = flag.Duration("grace", 0, "re-attach grace: how long a subscription outlives its last path (0 = default 5s, negative = off)")
		resend  = flag.Int("resend", 0, "dead-path resend window, packets (0 = default 64, negative = off)")
		shards  = flag.Int("shards", 0, "fan-out worker shards per stream (0 = GOMAXPROCS)")
		statsIv = flag.Duration("stats", 5*time.Second, "stats print interval (0 = quiet)")
		maxSubs = flag.Int("max-subs", 0, "max concurrent subscribers per stream; excess joins get a typed reject (0 = unlimited)")
		maxConn = flag.Int("max-conns", 0, "max subscriber path connections per stream (0 = unlimited)")
		maxByte = flag.Int64("max-bytes", 0, "per-stream resource-governor byte budget; laggards are degraded to stay under it (0 = unlimited)")
		joinTo  = flag.Duration("join-timeout", 0, "join handshake deadline, slowloris defense (0 = default 10s, negative = off)")
		drainTo = flag.Duration("drain", 10*time.Second, "graceful-drain budget on interrupt before force close")
	)
	flag.Var(&streams, "stream", "stream id subscribers may join; repeat or comma-separate for several (default live)")
	flag.Parse()
	if len(streams) == 0 {
		streams = streamList{"live"}
	}

	var pol dmpstream.SlowPolicy
	switch *policy {
	case "drop":
		pol = dmpstream.DropOldest
	case "evict":
		pol = dmpstream.Evict
	default:
		fatal(fmt.Errorf("unknown policy %q (want drop or evict)", *policy))
	}

	reg, err := dmpstream.NewRegistry(dmpstream.RegistryConfig{
		Stream: dmpstream.HubConfig{
			Rate:              *rate,
			PayloadSize:       *payload,
			Count:             *count,
			LagWindow:         *lag,
			SlowSubscriber:    pol,
			WriteStallTimeout: *stall,
			PathWriteBuffer:   *sndbuf,
			ReattachGrace:     *grace,
			ResendWindow:      *resend,
			MaxSubscribers:    *maxSubs,
			MaxConns:          *maxConn,
			MaxBytes:          *maxByte,
			Shards:            *shards,
		},
		JoinTimeout: *joinTo,
	})
	if err != nil {
		fatal(err)
	}
	hubs := make([]*dmpstream.Hub, 0, len(streams))
	for _, id := range streams {
		h, err := reg.CreateStream(id)
		if err != nil {
			fatal(err)
		}
		hubs = append(hubs, h)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("broadcasting %s at %g pkts/s each on %s (lag window %d, policy %s)\n",
		quoted(streams), *rate, ln.Addr(), *lag, *policy)

	serveDone := make(chan error, 1)
	go func() { serveDone <- reg.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if *statsIv > 0 {
		t := time.NewTicker(*statsIv)
		defer t.Stop()
		tick = t.C
	}
	allDone := make(chan struct{})
	go func() { // with -count, every stream ends on its own
		for _, h := range hubs {
			h.Wait()
		}
		close(allDone)
	}()

loop:
	for {
		select {
		case <-tick:
			printStats(reg.Stats())
		case <-sig:
			fmt.Printf("interrupt: draining subscribers (budget %v; signal again to force close)\n", *drainTo)
			_ = ln.Close() // stop admitting before the drain, not after
			drained := make(chan bool, 1)
			go func() { drained <- reg.Drain(*drainTo) }()
			select {
			case ok := <-drained:
				if ok {
					fmt.Println("drain complete: every path got its end marker")
				} else {
					fmt.Println("drain budget exhausted: remaining connections force-closed")
				}
			case <-sig:
				fmt.Println("second interrupt: force closing")
				reg.Close()
				<-drained
			}
			break loop
		case <-allDone:
			break loop
		case err := <-serveDone:
			// The accept loop already retries temporary errors with backoff;
			// an error here means the listener is gone. Log it and drain —
			// live subscribers should not die because accept did.
			if err != nil {
				fmt.Fprintln(os.Stderr, "dmpserve: accept loop:", err)
			}
			break loop
		}
	}
	_ = ln.Close()
	for _, h := range hubs {
		h.Stop()
	}
	for _, h := range hubs {
		h.Wait()
	}
	printStats(reg.Stats())
}

func quoted(ids []string) string {
	q := make([]string, len(ids))
	for i, id := range ids {
		q[i] = fmt.Sprintf("%q", id)
	}
	return strings.Join(q, ", ")
}

func printStats(st dmpstream.RegistryStats) {
	if st.Rejected > 0 || st.Handshaking > 0 || st.Draining {
		state := ""
		if st.Draining {
			state = ", draining"
		}
		fmt.Printf("registry: %d conn(s), rejected %d (unknown %d, ended %d), %d in handshake%s\n",
			st.Conns, st.Rejected, st.UnknownStream, st.StreamEnded, st.Handshaking, state)
	}
	for _, s := range st.Streams {
		h := s.Hub
		state := ""
		if h.Draining {
			state = ", draining"
		}
		fmt.Printf("[%7.1fs] %s: generated %d, sent %d, dropped %d, evicted %d, resent %d, reattached %d, goodput %.1f pkts/s, %d subscriber(s)%s\n",
			h.Elapsed.Seconds(), s.ID, h.Generated, h.Sent, h.Dropped, h.Evicted, h.Resent, h.Reattached, h.GoodputPkts, h.Subscribers, state)
		if h.Rejected+h.Shed+h.BytesHeld > 0 {
			fmt.Printf("  overload: rejected %d, shed %d, %d bytes held\n",
				h.Rejected, h.Shed, h.BytesHeld)
		}
		for _, sub := range h.Subs {
			fmt.Printf("  sub %s: %d path(s), lag %d, sent %d, dropped %d, deaths %d, resend-pending %d\n",
				sub.Token[:8], sub.Paths, sub.Lag, sub.Sent, sub.Dropped, sub.Deaths, sub.Pending)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmpserve:", err)
	os.Exit(1)
}
