package core

import (
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmpstream/internal/wire"
)

// The events of a path reader transcript, (op>>2)&3 of an op byte.
const (
	trAttach = iota // a connection attaches to the path: Run starts on it
	trHeader        // its stream header: µ 1000 or 500 by arg&1, 8- or 16-byte payloads by arg&2
	trEnd           // its end marker, announcing arg packets (14: -1, 15: a count with its top bit set)
	trFail          // its connection fails: EOF, a broken link, the end grace expiring
)

// armConn is a path's client end that remembers whether the reader armed a
// read deadline on it: the end grace, which FuzzPathReaderTranscript sets
// an hour long so it never fires by itself.
type armConn struct {
	net.Conn
	armed atomic.Bool
}

func (c *armConn) SetReadDeadline(t time.Time) error {
	c.armed.Store(true)
	return c.Conn.SetReadDeadline(t)
}

// trConn is one connection of the transcript as the fuzzer drives it.
type trConn struct {
	path    int
	live    bool // Run has not returned
	reading bool // its header was agreed
	server  net.Conn
	client  *armConn
	result  chan error
	armed   bool // the model's verdict: the reader must arm the end grace on client
}

// FuzzPathReaderTranscript drives a PathReader over net.Pipe paths, and
// the endRule step beside it, through a transcript of per-path events and
// checks both against a reference model that reads the transcript's
// history: every path must announce the first accepted header; the
// expected count is the max over -1 and every end marker so far, whatever
// counts they carry; the first marker
// finishes its path and arms the end grace on every other path in flight,
// and a path attaching after it gets the grace at once; a failure changes
// nothing but its path.
//
// Each op byte is path op&3, event (op>>2)&3 and its argument op>>4. An
// event that cannot come next on its path (a header on a path not
// attached, an end marker before the header) is skipped.
func FuzzPathReaderTranscript(f *testing.F) {
	ev := func(path, event, arg int) byte { return byte(path | event<<2 | arg<<4) }
	f.Add([]byte{ // TestEndOfStream: A ends at 5, B at 8, C goes silent until its grace expires, D announces another rate once it is over
		ev(0, trAttach, 0), ev(1, trAttach, 0), ev(2, trAttach, 0),
		ev(0, trHeader, 0), ev(1, trHeader, 0), ev(2, trHeader, 0),
		ev(0, trEnd, 5), ev(1, trEnd, 8), ev(3, trAttach, 0), ev(3, trHeader, 1), ev(2, trFail, 0)})
	f.Add([]byte{ // a redial after the end gets the grace at once; its smaller marker leaves the count
		ev(0, trAttach, 0), ev(1, trAttach, 0), ev(0, trHeader, 2), ev(1, trHeader, 2), ev(1, trFail, 0),
		ev(0, trEnd, 9), ev(1, trAttach, 0), ev(1, trHeader, 2), ev(1, trEnd, 3)})
	f.Add([]byte{ // TestReceiveRejectsPayloadMismatch: a second path with other payloads is refused
		ev(0, trAttach, 0), ev(0, trHeader, 2), ev(0, trEnd, 3), ev(1, trAttach, 0), ev(1, trHeader, 0)})
	f.Add([]byte{ // a truncated, unknown or absurd header, a reject frame: the path fails before its header
		ev(0, trAttach, 0), ev(0, trFail, 0)})
	f.Add([]byte{ // TestReceiveEOFWithoutEndMarker, TestReceiveTruncatedFrameStream: frames, then EOF
		ev(0, trAttach, 0), ev(0, trHeader, 0), ev(0, trFail, 0)})
	f.Add([]byte{ // a marker whose count has its top bit set still ends the stream: a sibling's marker and a redial after it are not the first
		ev(0, trAttach, 0), ev(1, trAttach, 0), ev(0, trHeader, 0), ev(1, trHeader, 0),
		ev(0, trEnd, 15), ev(1, trEnd, 14), ev(0, trAttach, 0), ev(0, trHeader, 0), ev(0, trEnd, 4)})
	f.Add([]byte{ // a path redialed after a failure carries the stream to its end
		ev(0, trAttach, 0), ev(0, trHeader, 1), ev(0, trFail, 0), ev(0, trAttach, 0), ev(0, trHeader, 1), ev(0, trEnd, 7)})
	f.Fuzz(func(t *testing.T, ops []byte) {
		pr := NewPathReader(time.Hour, nil, func(int, uint32, int64, []byte) {})
		rule := endRule{expected: -1}
		var first *[2]float64 // the model: the first accepted header,
		var markers []int64   // and every end marker so far
		var paths [4]*trConn  // the connection each path runs on now
		var conns []*trConn   // every connection attached
		wait := func(c *trConn, what string, ok func(error) bool) {
			t.Helper()
			if err := <-c.result; !ok(err) {
				t.Fatalf("%s: Run returned %v", what, err)
			}
			c.live = false
		}
		frame := make([]byte, wire.FrameHeaderSize+16)
		for i, op := range ops {
			k, event, arg := int(op&3), int(op>>2&3), int(op>>4)
			c := paths[k]
			live := c != nil && c.live
			what := fmt.Sprintf("op %d (path %d, event %d, arg %d)", i, k, event, arg)
			switch {
			case event == trAttach && !live:
				client, server := net.Pipe()
				c = &trConn{path: k, live: true, server: server, client: &armConn{Conn: client}, result: make(chan error, 1), armed: len(markers) > 0}
				paths[k], conns = c, append(conns, c)
				go func() { c.result <- pr.Run(k, c.client) }()
				if got := rule.ended; got != c.armed {
					t.Fatalf("%s: the rule arms the grace %v, model %v", what, got, c.armed)
				}
			case event == trHeader && live && !c.reading:
				mu, payload := 1000.0/float64(1+arg&1), 8<<(arg>>1&1)
				h := [2]float64{mu, float64(payload)}
				consume := first == nil || *first == h
				if first == nil {
					first = &h
				}
				if err := rule.header(k, mu, payload); (err == nil) != consume {
					t.Fatalf("%s: the rule answers %v, model consume %v", what, err, consume)
				}
				if err := wire.WriteStreamHeader(c.server, k, 4, payload, mu); err != nil {
					t.Fatal(err)
				}
				if !consume {
					wait(c, what, func(err error) bool { return err != nil && strings.Contains(err.Error(), "announces") })
					break
				}
				// The reader takes a frame only once it agreed the header.
				wire.PutFrameHeader(frame, uint32(i), 0)
				if _, err := c.server.Write(frame[:wire.FrameHeaderSize+payload]); err != nil {
					t.Fatal(err)
				}
				c.reading = true
			case event == trEnd && live && c.reading:
				count := int64(arg)
				if arg >= 14 {
					count = []int64{-1, math.MinInt64 + 15}[arg-14]
				}
				arm := len(markers) == 0
				markers = append(markers, count)
				for _, o := range conns {
					o.armed = o.armed || arm && o.live && o != c
				}
				if got := rule.end(count); got != arm {
					t.Fatalf("%s: the rule arms %v, model %v", what, got, arm)
				}
				wire.PutFrameHeader(frame, wire.EndMarker, count)
				if _, err := c.server.Write(frame[:wire.FrameHeaderSize+int(first[1])]); err != nil {
					t.Fatal(err)
				}
				wait(c, what, func(err error) bool { return err == nil })
			case event == trFail && live:
				c.server.Close()
				wait(c, what, func(err error) bool { return err != nil })
			default:
				continue
			}
			want := int64(-1)
			if len(markers) > 0 {
				want = max(want, slices.Max(markers))
			}
			if rule.expected != want || pr.Expected() != want {
				t.Fatalf("%s: expected count %d (reader %d), model %d", what, rule.expected, pr.Expected(), want)
			}
		}
		for _, c := range conns {
			if c.live {
				c.server.Close()
				<-c.result
			}
		}
		for n, c := range conns {
			if got := c.client.armed.Load(); got != c.armed {
				t.Fatalf("connection %d (path %d): end grace armed %v, model %v", n, c.path, got, c.armed)
			}
		}
		mu, payload := pr.Header()
		if first != nil && (mu != first[0] || float64(payload) != first[1]) || first == nil && mu != 0 {
			t.Fatalf("header µ %v, %d-byte payloads; model %v", mu, payload, first)
		}
		select {
		case <-pr.Done():
			if len(markers) == 0 {
				t.Fatal("Done closed with no end marker")
			}
		default:
			if len(markers) > 0 {
				t.Fatal("Done open after an end marker")
			}
		}
	})
}
