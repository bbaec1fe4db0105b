package tcpmodel

// The steady-state TCP throughput formula of Padhye, Firoiu, Towsley and
// Kurose (SIGCOMM 1998), reference [24] of the paper. The paper uses it to
// construct its Case-2 heterogeneous paths; this reproduction inverts the
// model's own chain instead (LossForThroughput), and keeps PFTK as an
// independent cross-check that the chain produces sane Reno throughputs
// (TestThroughputAgreesWithPFTK).

import (
	"math"
	"testing"
	"testing/quick"
)

// pftkThroughput returns the PFTK full-model estimate of TCP Reno throughput in
// packets per second.
//
//	p   per-packet loss probability
//	rtt round-trip time, seconds
//	rto retransmission timeout, seconds
//	b   packets acknowledged per ACK (2 with delayed ACKs)
//	wm  maximum window, packets
func pftkThroughput(p, rtt, rto, b, wm float64) float64 {
	if p <= 0 {
		// Loss-free: limited by window only.
		return wm / rtt
	}
	// E[W] for the unconstrained model.
	ew := 2/(3*b) + math.Sqrt(8/(3*b*p)+math.Pow(2/(3*b), 2))
	qp := math.Min(1, 3*math.Sqrt(3*b*p/8)) // prob. a loss is a timeout
	fp := 1 + 32*p*p                        // backoff factor Σ (2p)^k truncated

	var denom float64
	if ew < wm {
		denom = rtt*(b/2*ew+1) + qp*rto*fp/(1-p)
	} else {
		denom = rtt*(b/8*wm+1/(p*wm)+2) + qp*rto*fp/(1-p)
	}
	num := (1-p)/p + ew + qp/(1-p)
	if ew >= wm {
		num = (1-p)/p + wm + qp/(1-p)
	}
	return num / denom
}

// pftkSimpleThroughput is the PFTK "square-root" approximation including the
// timeout term (their Eq. 30 simplified form), packets per second.
func pftkSimpleThroughput(p, rtt, rto, b float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	den := rtt*math.Sqrt(2*b*p/3) + rto*math.Min(1, 3*math.Sqrt(3*b*p/8))*p*(1+32*p*p)
	return 1 / den
}

func TestPFTKThroughputDecreasingInLoss(t *testing.T) {
	prev := math.Inf(1)
	for _, p := range []float64{0.001, 0.004, 0.01, 0.02, 0.04, 0.1} {
		got := pftkThroughput(p, 0.2, 0.8, 2, 32)
		if got >= prev {
			t.Fatalf("not decreasing at p=%v: %v >= %v", p, got, prev)
		}
		prev = got
	}
}

func TestPFTKThroughputLossFreeIsWindowLimited(t *testing.T) {
	if got := pftkThroughput(0, 0.1, 0.4, 2, 20); got != 200 {
		t.Fatalf("loss-free throughput %v, want Wmax/RTT = 200", got)
	}
}

func TestPFTKSquareRootRegime(t *testing.T) {
	// At small p with a large window cap, the full model approaches the
	// square-root law 1/(R·sqrt(2bp/3)).
	p, rtt := 0.002, 0.2
	got := pftkThroughput(p, rtt, 2*rtt, 2, 1000)
	want := 1 / (rtt * math.Sqrt(2*2*p/3))
	if got < 0.6*want || got > 1.3*want {
		t.Fatalf("full model %v vs square-root law %v", got, want)
	}
}

func TestPFTKWindowCapBinds(t *testing.T) {
	// With a tiny window cap, throughput must fall well below the
	// unconstrained value.
	free := pftkThroughput(0.005, 0.1, 0.4, 2, 1000)
	capped := pftkThroughput(0.005, 0.1, 0.4, 2, 6)
	if capped >= free {
		t.Fatalf("cap did not bind: %v >= %v", capped, free)
	}
	if capped > 6/0.1 {
		t.Fatalf("capped throughput %v exceeds Wmax/RTT", capped)
	}
}

func TestPFTKSimpleThroughputOrdering(t *testing.T) {
	// The simplified formula should track the full model within a factor 2
	// over the paper's parameter ranges.
	for _, p := range []float64{0.004, 0.02, 0.04} {
		full := pftkThroughput(p, 0.15, 0.6, 2, 64)
		simple := pftkSimpleThroughput(p, 0.15, 0.6, 2)
		if simple < full/2 || simple > full*2 {
			t.Fatalf("p=%v: simple %v vs full %v", p, simple, full)
		}
	}
	if !math.IsInf(pftkSimpleThroughput(0, 0.1, 0.4, 2), 1) {
		t.Fatal("loss-free simple formula should be unbounded")
	}
}

// Property: PFTK throughput is positive and bounded by Wmax/RTT for any valid
// parameters.
func TestPFTKPropertyBounds(t *testing.T) {
	f := func(pRaw, rttRaw, toRaw uint16) bool {
		p := 0.0005 + float64(pRaw%200)/1000.0
		rtt := 0.02 + float64(rttRaw%400)/1000.0
		rto := rtt * (1 + float64(toRaw%40)/10)
		got := pftkThroughput(p, rtt, rto, 2, 32)
		return got > 0 && got <= 32/rtt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
