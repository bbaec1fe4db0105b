// Path failover: one of two paths collapses mid-stream and DMP-streaming
// shifts the load to the healthy path without any explicit signaling.
//
// Both paths run through WAN-emulation relays. Path 1 suffers a long, deep
// congestion episode in the middle of the session (its rate drops to 5% for
// ~10 seconds). Because senders only fetch packets from the shared server
// queue when their TCP send buffer has room, the congested path simply stops
// fetching and the healthy path carries the stream — the paper's Section 7.3
// argument, live.
//
// Run: go run ./examples/path-failover
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"dmpstream"
	"dmpstream/internal/emunet"
)

func main() {
	const (
		rate    = 80.0 // packets/s
		payload = 500  // bytes
		seconds = 20
	)
	srv, err := dmpstream.NewServer(dmpstream.StreamConfig{
		Rate: rate, PayloadSize: payload, Count: rate * seconds,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Path 0: healthy, can carry the whole stream alone (80 KB/s > 41 KB/s).
	// Path 1: same nominal rate but hit by frequent deep congestion episodes.
	cfgs := []emunet.PathConfig{
		{RateBps: 80e3, Delay: 20 * time.Millisecond, BufferKiB: 16},
		{RateBps: 80e3, Delay: 20 * time.Millisecond, BufferKiB: 16,
			EpisodeRate: 0.2, EpisodeDuration: 8 * time.Second, EpisodeFactor: 0.05, Seed: 42},
	}

	serverConns := make([]net.Conn, 2)
	clientConns := make([]net.Conn, 2)
	for i, cfg := range cfgs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		relay, err := emunet.Listen("127.0.0.1:0", ln.Addr().String(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer relay.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			c, err := ln.Accept()
			_ = ln.Close()
			if err == nil {
				accepted <- c
			}
		}()
		serverConns[i], err = net.Dial("tcp", relay.Addr())
		if err != nil {
			log.Fatal(err)
		}
		if tc, ok := serverConns[i].(*net.TCPConn); ok {
			tc.SetWriteBuffer(16 * 1024)
		}
		clientConns[i] = <-accepted
	}

	fmt.Printf("streaming %d packets at %g pkts/s; path 1 will suffer deep congestion episodes...\n",
		int(rate*seconds), rate)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.Serve(serverConns); err != nil {
			log.Printf("serve: %v", err)
		}
		for _, c := range serverConns {
			_ = c.Close()
		}
	}()

	trace, err := dmpstream.Receive(clientConns)
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()

	counts := srv.PathCounts()
	fmt.Printf("\nreceived %d/%d packets\n", len(trace.Arrivals), trace.Expected)
	fmt.Printf("path 0 (healthy)   carried %d packets\n", counts[0])
	fmt.Printf("path 1 (congested) carried %d packets\n", counts[1])
	for _, tau := range []float64{1, 4, 8, 12} {
		playback, _ := trace.LateFraction(tau)
		fmt.Printf("startup delay %3.0fs: late fraction %.4f\n", tau, playback)
	}
	fmt.Println("\nNo probing, no signaling: the congested path's full send buffer")
	fmt.Println("simply stopped it from fetching packets from the server queue.")
	if missing := trace.Missing(); len(missing) > 0 {
		log.Fatalf("%d of %d packets never arrived", len(missing), trace.Expected)
	}
}
