package core

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"dmpstream/internal/wire"
)

// TestWriteStallTimeout: with Config.WriteStallTimeout set, a path whose
// peer stops reading fails with a timeout error instead of blocking
// Session.Wait forever.
func TestWriteStallTimeout(t *testing.T) {
	srv, err := NewServer(wire.Config{
		Mu: 5000, PayloadSize: 8192, Count: 100, // ~820 KB, instantly generated
		WriteStallTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := tcpPair(t)
	defer cConn.Close()
	defer sConn.Close()
	// Small socket buffers so the sender blocks after a handful of frames;
	// the client deliberately never reads.
	sConn.(*net.TCPConn).SetWriteBuffer(8 * 1024)
	cConn.(*net.TCPConn).SetReadBuffer(8 * 1024)

	sess := srv.Start()
	sess.AddPath(sConn)
	done := make(chan error, 1)
	go func() {
		_, err := sess.Wait()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("hung path produced no error")
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("want a timeout error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Session.Wait still blocked despite WriteStallTimeout")
	}
}

// TestWriteStallTimeoutConfigValidation rejects negative timeouts.
func TestWriteStallTimeoutConfigValidation(t *testing.T) {
	if _, err := NewServer(wire.Config{Mu: 10, WriteStallTimeout: -time.Second}); err == nil {
		t.Fatal("negative stall timeout accepted")
	}
}

// TestSessionConcurrentMembership hammers AddPath/RemovePath/Stop from
// concurrent goroutines on a live session; run under -race this pins the
// locking of dynamic path membership.
func TestSessionConcurrentMembership(t *testing.T) {
	srv, err := NewServer(wire.Config{Mu: 2000, PayloadSize: 32}) // live until Stop
	if err != nil {
		t.Fatal(err)
	}
	const paths = 6
	sConns := make([]net.Conn, paths)
	cConns := make([]net.Conn, paths)
	for i := 0; i < paths; i++ {
		cConns[i], sConns[i] = tcpPair(t)
	}
	// Drain every client side so no sender can block on a full buffer.
	var drain sync.WaitGroup
	for _, c := range cConns {
		drain.Add(1)
		go func(c net.Conn) {
			defer drain.Done()
			io.Copy(io.Discard, c)
		}(c)
	}

	sess := srv.Start()
	rng := rand.New(rand.NewSource(42))
	delays := make([]time.Duration, paths)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(100)) * time.Millisecond
	}
	var wg sync.WaitGroup
	for i := 0; i < paths; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := sess.AddPath(sConns[i])
			time.Sleep(delays[i])
			if i%2 == 0 {
				sess.RemovePath(k)
				sess.RemovePath(k) // concurrent double-remove is a no-op
			}
		}(i)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		srv.Stop()
	}()
	wg.Wait()

	done := make(chan struct{})
	var n int64
	var werr error
	go func() {
		n, werr = sess.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait deadlocked under concurrent membership changes")
	}
	if werr != nil {
		t.Fatalf("session error: %v", werr)
	}
	if n == 0 {
		t.Fatal("nothing generated")
	}
	for _, c := range sConns {
		c.Close()
	}
	drain.Wait()
	for _, c := range cConns {
		c.Close()
	}
	counts := srv.PathCounts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("conservation violated: generated %d, sent %d (%v)", n, total, counts)
	}
}
