// Path flap: one of two hub paths is killed mid-stream, the client redials
// it under its backoff policy, and the subscription survives the flap.
//
// A broadcast hub streams to a two-path subscriber. Path 1 runs through a
// WAN-emulation relay carrying a scripted fault timeline: at t=5s the relay
// severs every connection (the path dies), at t=10s the client's redial gets
// through and re-attaches with the original token. The hub keeps the
// subscription alive over the gap (re-attach grace) and replays the dead
// path's resend window on the surviving path, so the stream completes with
// no missing packets — the client just sees a handful of deduplicated
// retransmissions.
//
// Run: go run ./examples/path-flap
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"dmpstream"
	"dmpstream/internal/emunet"
)

func main() {
	const (
		rate    = 50.0 // packets/s
		payload = 500  // bytes
		seconds = 15
	)
	h, err := dmpstream.NewHub(dmpstream.HubConfig{
		Rate: rate, PayloadSize: payload, Count: rate * seconds,
		StreamID:          "flap",
		WriteStallTimeout: 2 * time.Second,
		ReattachGrace:     10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go h.Serve(ln)

	// Path 0 dials the hub directly; path 1 goes through the faulty relay.
	relay, err := emunet.Listen("127.0.0.1:0", ln.Addr().String(), emunet.PathConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer relay.Close()
	events, err := emunet.ParseFaultScript("sever@5s")
	if err != nil {
		log.Fatal(err)
	}
	tl := relay.Schedule(events)
	defer tl.Stop()

	addrs := []string{ln.Addr().String(), relay.Addr()}
	client, err := dmpstream.NewStreamClient(addrs, "flap", dmpstream.RedialPolicy{
		Base:       5 * time.Second, // death at t=5s + 5s backoff = redial at t=10s
		Multiplier: 1,
		Budget:     3,
	})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	client.OnPathDown = func(path int, err error) {
		fmt.Printf("[%5.1fs] path %d down: %v\n", time.Since(start).Seconds(), path, err)
	}
	client.OnPathUp = func(path, attempt int) {
		if attempt == 0 {
			fmt.Printf("[%5.1fs] path %d attached\n", time.Since(start).Seconds(), path)
		} else {
			fmt.Printf("[%5.1fs] path %d re-attached (redial %d)\n", time.Since(start).Seconds(), path, attempt)
		}
	}

	fmt.Printf("streaming %d packets at %g pkts/s; path 1 is severed at t=5s...\n",
		int(rate*seconds), rate)
	trace, err := client.Run()
	if err != nil {
		log.Fatal(err)
	}
	h.Stop()
	h.Wait()

	st := h.Stats()
	fmt.Printf("\nreceived %d/%d packets, %d missing\n",
		len(trace.Arrivals), trace.Expected, len(trace.Missing()))
	fmt.Printf("hub resent %d packets from the dead path's window; %d duplicate(s) discarded client-side\n",
		st.Resent, trace.Duplicates)
	fmt.Printf("re-attaches honored by the hub: %d\n", st.Reattached)
	for _, tau := range []float64{1, 4, 8} {
		playback, _ := trace.LateFraction(tau)
		fmt.Printf("startup delay %2.0fs: late fraction %.4f\n", tau, playback)
	}
	fmt.Println("\nThe token in the re-sent join is the whole recovery protocol:")
	fmt.Println("same subscription, same rebased numbering, no wire change.")
	if missing := trace.Missing(); len(missing) > 0 {
		log.Fatalf("%d of %d packets never arrived", len(missing), trace.Expected)
	}
}
