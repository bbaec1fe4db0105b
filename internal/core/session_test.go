package core

import (
	"net"
	"sync"
	"testing"
	"time"

	"dmpstream/internal/wire"
)

func TestSessionAddPathMidStream(t *testing.T) {
	srv, err := NewServer(wire.Config{Mu: 400, PayloadSize: 100, Count: 800}) // ~2s stream
	if err != nil {
		t.Fatal(err)
	}
	c0, s0 := tcpPair(t)
	c1, s1 := tcpPair(t)

	sess := srv.Start()
	if idx := sess.AddPath(s0); idx != 0 {
		t.Fatalf("first path index %d", idx)
	}

	// The client must start reading path 1 only once it exists; run both
	// readers but dial in the second connection after ~0.5 s of stream.
	var tr *Trace
	var rErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(500 * time.Millisecond)
		if idx := sess.AddPath(s1); idx != 1 {
			t.Errorf("second path index %d", idx)
		}
	}()
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		tr, rErr = Receive([]net.Conn{c0, c1})
	}()

	n, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	s0.Close()
	s1.Close()
	wg.Wait()
	rwg.Wait()
	if rErr != nil {
		t.Fatal(rErr)
	}
	if n != 800 || int64(len(tr.Arrivals)) != 800 {
		t.Fatalf("generated %d, arrived %d", n, len(tr.Arrivals))
	}
	counts := srv.PathCounts()
	if len(counts) != 2 || counts[1] == 0 {
		t.Fatalf("late-added path carried nothing: %v", counts)
	}
}

func TestSessionSurvivesPathFailure(t *testing.T) {
	srv, err := NewServer(wire.Config{Mu: 400, PayloadSize: 100, Count: 800})
	if err != nil {
		t.Fatal(err)
	}
	c0, s0 := tcpPair(t)
	c1, s1 := tcpPair(t)

	sess := srv.Start()
	sess.AddPath(s0)
	sess.AddPath(s1)

	var tr *Trace
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		tr, _ = Receive([]net.Conn{c0, c1}) // path-1 error expected
	}()
	// Kill path 1 shortly into the stream.
	go func() {
		time.Sleep(300 * time.Millisecond)
		c1.Close()
		s1.Close()
	}()

	n, err := sess.Wait()
	if err == nil {
		t.Fatal("expected a path error from the killed connection")
	}
	s0.Close()
	rwg.Wait()

	if n != 800 {
		t.Fatalf("generation stalled at %d", n)
	}
	// The healthy path must have carried the stream to completion: we accept
	// the loss of packets stuck in the dead path's buffers.
	if int64(len(tr.Arrivals)) < 700 {
		t.Fatalf("only %d/800 arrived after single-path failure", len(tr.Arrivals))
	}
	counts := srv.PathCounts()
	if counts[0] < counts[1] {
		t.Fatalf("healthy path did not dominate after failure: %v", counts)
	}
}

func TestAddPathAfterWaitPanics(t *testing.T) {
	srv, err := NewServer(wire.Config{Mu: 1000, PayloadSize: 10, Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	c0, s0 := tcpPair(t)
	sess := srv.Start()
	sess.AddPath(s0)
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		Receive([]net.Conn{c0})
	}()
	if _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	s0.Close()
	rwg.Wait()
	defer func() {
		if recover() == nil {
			t.Error("AddPath after Wait did not panic")
		}
	}()
	_, s1 := tcpPair(t)
	sess.AddPath(s1)
}

func TestSessionRemovePathDrains(t *testing.T) {
	srv, err := NewServer(wire.Config{Mu: 400, PayloadSize: 100, Count: 1200}) // 3s stream
	if err != nil {
		t.Fatal(err)
	}
	c0, s0 := tcpPair(t)
	c1, s1 := tcpPair(t)
	sess := srv.Start()
	sess.AddPath(s0)
	k1 := sess.AddPath(s1)

	var tr *Trace
	var rErr error
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		tr, rErr = Receive([]net.Conn{c0, c1})
	}()
	go func() {
		time.Sleep(500 * time.Millisecond)
		sess.RemovePath(k1)
		sess.RemovePath(k1) // idempotent
		sess.RemovePath(99) // unknown: no-op
	}()
	n, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	s0.Close()
	s1.Close()
	rwg.Wait()
	if rErr != nil {
		t.Fatal(rErr)
	}
	if n != 1200 || int64(len(tr.Arrivals)) != 1200 {
		t.Fatalf("generated %d arrived %d; removal must not lose packets", n, len(tr.Arrivals))
	}
	counts := srv.PathCounts()
	// Path 1 served only the first ~0.5s of a 3s stream.
	if counts[1] >= counts[0] {
		t.Fatalf("removed path carried %d vs %d", counts[1], counts[0])
	}
	if counts[1] == 0 {
		t.Fatal("path 1 never carried anything before removal")
	}
}

// TestSessionBackloggedPathLosesNothing: the server queue of a finite
// stream holds the whole stream. The only path is held — a pipe nobody
// reads yet — while all of a stream longer than the hub's default
// 1024-packet ring is generated; released, it must deliver every packet.
func TestSessionBackloggedPathLosesNothing(t *testing.T) {
	const count = 1500
	srv, err := NewServer(wire.Config{Mu: 5000, PayloadSize: 64, Count: count})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	sess := srv.Start()
	sess.AddPath(server)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Generated() < count {
		if time.Now().After(deadline) {
			t.Fatalf("generated %d of %d", srv.Generated(), count)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sent := srv.PathCounts()[0]; sent != 0 {
		t.Fatalf("the held path took %d packets", sent)
	}
	tr, err := Receive([]net.Conn{client})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sess.Wait(); n != count || err != nil {
		t.Fatalf("generated %d, error %v", n, err)
	}
	if missing := tr.Missing(); tr.Expected != count || len(missing) != 0 || len(tr.Arrivals) != count {
		t.Fatalf("expected %d, %d arrivals, %d missing", tr.Expected, len(tr.Arrivals), len(missing))
	}
}

// TestLiveSessionBackloggedPathLosesNothing is the live twin of the test
// above: a live stream's queue grows with its backlog too. The only path is
// held while more than a second of the stream, and more than the hub's
// default 1024-packet ring, is generated; released, and the stream
// stopped, it must deliver every packet.
func TestLiveSessionBackloggedPathLosesNothing(t *testing.T) {
	const mu, held = 1000, 1500
	srv, err := NewServer(wire.Config{Mu: mu, PayloadSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	sess := srv.Start()
	sess.AddPath(server)
	deadline := time.Now().Add(10 * time.Second)
	for srv.Generated() < held {
		if time.Now().After(deadline) {
			t.Fatalf("generated %d of %d", srv.Generated(), held)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sent := srv.PathCounts()[0]; sent != 0 {
		t.Fatalf("the held path took %d packets", sent)
	}
	srv.Stop()
	tr, err := Receive([]net.Conn{client})
	if err != nil {
		t.Fatal(err)
	}
	n, err := sess.Wait()
	if n < held || err != nil {
		t.Fatalf("generated %d, error %v", n, err)
	}
	if missing := tr.Missing(); tr.Expected != n || len(missing) != 0 || int64(len(tr.Arrivals)) != n {
		t.Fatalf("expected %d of %d, %d arrivals, %d missing", tr.Expected, n, len(tr.Arrivals), len(missing))
	}
}

// TestAddPathAfterGenerationDrains: a path added once generation has ended
// takes what the queue still holds. The only path is held while the whole
// stream is generated; a second path added then delivers all of it, and
// the held one, closed, is the one that fails.
func TestAddPathAfterGenerationDrains(t *testing.T) {
	const count = 1500
	srv, err := NewServer(wire.Config{Mu: 5000, PayloadSize: 64, Count: count})
	if err != nil {
		t.Fatal(err)
	}
	c0, s0 := net.Pipe()
	sess := srv.Start()
	sess.AddPath(s0)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Generated() < count {
		if time.Now().After(deadline) {
			t.Fatalf("generated %d of %d", srv.Generated(), count)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // the generator has exited
	c1, s1 := tcpPair(t)
	if k := sess.AddPath(s1); k != 1 {
		t.Fatalf("second path index %d", k)
	}
	tr, err := Receive([]net.Conn{c1})
	if err != nil {
		t.Fatal(err)
	}
	c0.Close()
	if n, err := sess.Wait(); n != count || err == nil {
		t.Fatalf("generated %d, error %v; want the held path's error", n, err)
	}
	if missing := tr.Missing(); tr.Expected != count || len(missing) != 0 || len(tr.Arrivals) != count {
		t.Fatalf("expected %d, %d arrivals, %d missing", tr.Expected, len(tr.Arrivals), len(missing))
	}
	if got := sess.PathStates(); got[0] != PathDead || got[1] != PathActive {
		t.Fatalf("path states %v, want [dead active]", got)
	}
}

// TestRemoveThenAddPathResumes: removing a session's only path leaves its
// queue in place, so the next path added carries on where the removed one
// stopped — nothing sent twice, nothing lost.
func TestRemoveThenAddPathResumes(t *testing.T) {
	srv, err := NewServer(wire.Config{Mu: 500, PayloadSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	c0, s0 := tcpPair(t)
	c1, s1 := tcpPair(t)
	sess := srv.Start()
	k0 := sess.AddPath(s0)

	var tr *Trace
	var rErr error
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		tr, rErr = Receive([]net.Conn{c0, c1})
	}()
	time.Sleep(300 * time.Millisecond)
	sess.RemovePath(k0)
	time.Sleep(300 * time.Millisecond) // the queue builds with no path
	sess.AddPath(s1)
	time.Sleep(300 * time.Millisecond)
	srv.Stop()
	n, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rwg.Wait()
	if rErr != nil {
		t.Fatal(rErr)
	}
	if tr.Duplicates != 0 {
		t.Fatalf("%d packets sent twice", tr.Duplicates)
	}
	if missing := tr.Missing(); tr.Expected != n || len(missing) != 0 || int64(len(tr.Arrivals)) != n {
		t.Fatalf("expected %d of %d, %d arrivals, %d missing", tr.Expected, n, len(tr.Arrivals), len(missing))
	}
	if got := srv.PathCounts(); got[0] == 0 || got[1] == 0 || got[0]+got[1] != n {
		t.Fatalf("path counts %v, want both carrying %d between them", got, n)
	}
}

// TestDeadSessionLeavesNoSubscriber: a session whose only path died and was
// never replaced is still owed the rest of its stream when the stream
// ends, so its subscription outlives the seal in an unbounded re-attach
// grace. Wait closes the hub, which removes it and stops its timer.
func TestDeadSessionLeavesNoSubscriber(t *testing.T) {
	srv, err := NewServer(wire.Config{Mu: 1000, PayloadSize: 10, Count: 200})
	if err != nil {
		t.Fatal(err)
	}
	c0, s0 := tcpPair(t)
	c0.Close()
	sess := srv.Start()
	sess.AddPath(s0)
	if _, err := sess.Wait(); err == nil {
		t.Fatal("expected the dead path's error")
	}
	if st := sess.PathState(0); st != PathDead {
		t.Fatalf("path state %v, want dead", st)
	}
	if n := sess.hub.SubscriberCount(); n != 0 {
		t.Fatalf("%d subscribers left after Wait, want 0", n)
	}
}
