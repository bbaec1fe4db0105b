// Quickstart: stream a live source over two TCP paths with DMP-streaming and
// report late-packet statistics.
//
// The server generates a 100 pkt/s CBR stream (≈0.8 Mbit/s) and stripes it
// over two loopback TCP connections; the client reassembles by packet number
// and evaluates the fraction of late packets for several startup delays.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net"
	"sync"

	"dmpstream"
)

func main() {
	const paths = 2
	srv, err := dmpstream.NewServer(dmpstream.StreamConfig{
		Rate:        100,  // packets per second
		PayloadSize: 1000, // bytes per packet
		Count:       500,  // stream 5 seconds of video
	})
	if err != nil {
		log.Fatal(err)
	}

	// One TCP connection per path. In a real deployment these would go over
	// different interfaces or providers; here both are loopback.
	serverConns := make([]net.Conn, paths)
	clientConns := make([]net.Conn, paths)
	for i := 0; i < paths; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		accepted := make(chan net.Conn, 1)
		go func() {
			c, err := ln.Accept()
			if err == nil {
				accepted <- c
			}
		}()
		clientConns[i], err = net.Dial("tcp", ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		serverConns[i] = <-accepted
		_ = ln.Close()
	}

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

	fmt.Printf("received %d/%d packets, per-path split %v, reorderings %d\n",
		len(trace.Arrivals), trace.Expected, trace.PathCounts(paths), trace.ReorderCount())
	for _, tau := range []float64{0.1, 0.5, 1.0} {
		playback, arrival := trace.LateFraction(tau)
		fmt.Printf("startup delay %4.1fs: late fraction %.4f (playback order), %.4f (arrival order)\n",
			tau, playback, arrival)
	}
	if missing := trace.Missing(); len(missing) > 0 {
		log.Fatalf("%d of %d packets never arrived", len(missing), trace.Expected)
	}
}
