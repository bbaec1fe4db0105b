package trace

import "testing"

func TestBuildChainsAndSelfTime(t *testing.T) {
	stages := []Stage{
		{Name: "publish", From: PubStart, To: PubEnd},
		{Name: "wake", From: PubEnd, To: SinkIn},
		{Name: "write", From: SinkIn, To: SinkOut},
	}
	const frame = 1000
	events := []Event{
		{Frame: frame, Point: PubStart, At: 1100, Who: Shared},
		{Frame: frame, Point: PubEnd, At: 1300, Who: Shared},
		{Frame: frame, Point: SinkIn, At: 1350, Who: 7},
		{Frame: frame, Point: SinkOut, At: 1400, Who: 7},
		// Sink 8 ran before PublishAt returned: wake clamps to zero.
		{Frame: frame, Point: SinkIn, At: 1250, Who: 8},
		{Frame: frame, Point: SinkOut, At: 1260, Who: 8},
	}
	spans := Build(events, "frame", stages)
	if len(spans) != 8 {
		t.Fatalf("%d spans, want two chains of four", len(spans))
	}
	root := spans[0]
	if root.Parent != -1 || root.Who != 7 || root.Start != frame || root.End != 1400 {
		t.Fatalf("root %+v", root)
	}
	// 400 ns long, children cover 200+50+50: the 100 ns before PubStart is
	// the root's own.
	if root.Self != 100 {
		t.Fatalf("root self %d", root.Self)
	}
	for _, s := range spans[1:4] {
		if s.Parent != root.ID || s.Self != s.Dur() {
			t.Fatalf("child %+v", s)
		}
	}
	if got := Durations(spans, "wake"); len(got) != 2 || got[0] != 50 || got[1] != 0 {
		t.Fatalf("wake durations %v", got)
	}
}

func TestSampling(t *testing.T) {
	var none *Recorder
	if none.Sampled(1) {
		t.Fatal("nil recorder samples")
	}
	r := NewRecorder(64)
	if r.Sampled(12345) {
		t.Fatal("recorder samples while off")
	}
	r.Enable(true)
	hits := 0
	for f := int64(1e18); f < 1e18+64000; f++ {
		if r.Sampled(f) {
			hits++
		}
	}
	if hits < 700 || hits > 1300 {
		t.Fatalf("sampled %d of 64000 consecutive stamps, want about 1000", hits)
	}
	r.Mark(5, SinkIn, 9, 1)
	if ev := r.Events(); len(ev) != 1 || ev[0].At != 9 {
		t.Fatalf("events %+v", ev)
	}
}
