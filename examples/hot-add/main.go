// Hot-add: grow a live stream's path set while it is running.
//
// The stream starts on a single rate-limited path that cannot carry the full
// video rate, so the server queue backs up and packets run late. Two seconds
// in, a second path joins via Session.AddPath; DMP-streaming immediately
// starts striping across both, the backlog drains and lateness stops — no
// renegotiation, no restart.
//
// Run: go run ./examples/hot-add
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

const (
	rate    = 100.0 // packets per second
	payload = 500   // bytes → video needs ≈50 KB/s
	seconds = 10
)

// dialPath creates one relay-impaired path and returns both endpoints.
func dialPath(rateBps float64) (server, client net.Conn, cleanup func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	relay, err := emunet.Listen("127.0.0.1:0", ln.Addr().String(), emunet.PathConfig{
		RateBps: rateBps, Delay: 20 * time.Millisecond, BufferKiB: 16,
	})
	if err != nil {
		_ = ln.Close()
		return nil, nil, nil, err
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		_ = ln.Close()
		if err == nil {
			accepted <- c
		}
	}()
	server, err = net.Dial("tcp", relay.Addr())
	if err != nil {
		_ = relay.Close()
		return nil, nil, nil, err
	}
	if tc, ok := server.(*net.TCPConn); ok {
		tc.SetWriteBuffer(16 * 1024)
	}
	client = <-accepted
	return server, client, func() { _ = relay.Close() }, nil
}

func main() {
	srv, err := dmpstream.NewServer(dmpstream.StreamConfig{
		Rate: rate, PayloadSize: payload, Count: rate * seconds,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Path 0 alone: 30 KB/s < the 52 KB/s the stream needs.
	s0, c0, cleanup0, err := dialPath(30e3)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup0()
	s1, c1, cleanup1, err := dialPath(60e3)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup1()

	sess := srv.Start()
	sess.AddPath(s0)
	fmt.Println("streaming on one undersized path; adding a second path in 2s...")
	go func() {
		time.Sleep(2 * time.Second)
		idx := sess.AddPath(s1)
		fmt.Printf("path %d joined the live session\n", idx)
	}()

	var trace *dmpstream.Trace
	var rErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		trace, rErr = dmpstream.Receive([]net.Conn{c0, c1})
	}()

	if _, err := sess.Wait(); err != nil {
		log.Printf("path errors: %v", err)
	}
	_ = s0.Close()
	_ = s1.Close()
	wg.Wait()
	if rErr != nil {
		log.Fatal(rErr)
	}

	counts := srv.PathCounts()
	fmt.Printf("\nreceived %d/%d packets; path split %v\n",
		len(trace.Arrivals), trace.Expected, counts)
	for _, tau := range []float64{1, 2, 4} {
		playback, _ := trace.LateFraction(tau)
		fmt.Printf("startup delay %2.0fs: late fraction %.4f\n", tau, playback)
	}
	fmt.Println("\nLateness concentrates in the single-path prefix; once path 1 joined,")
	fmt.Println("the queue drained and the rest of the stream arrived on time.")
	if missing := trace.Missing(); len(missing) > 0 {
		log.Fatalf("%d of %d packets never arrived", len(missing), trace.Expected)
	}
}
