package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTraceCSVRoundTrip(t *testing.T) {
	orig := &Trace{Mu: 50, PayloadSize: 1000, Expected: 3}
	orig.Arrivals = []Arrival{
		{Pkt: 0, Gen: 100, At: 200, Path: 0},
		{Pkt: 2, Gen: 140, At: 260, Path: 1},
		{Pkt: 1, Gen: 120, At: 400, Path: 0},
	}
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mu != 50 || got.PayloadSize != 1000 || got.Expected != 3 {
		t.Fatalf("metadata: %+v", got)
	}
	if len(got.Arrivals) != 3 {
		t.Fatalf("%d arrivals", len(got.Arrivals))
	}
	for i := range orig.Arrivals {
		if got.Arrivals[i] != orig.Arrivals[i] {
			t.Fatalf("arrival %d: %+v vs %+v", i, got.Arrivals[i], orig.Arrivals[i])
		}
	}
}

func TestTraceCSVAnalysisSurvivesRoundTrip(t *testing.T) {
	tr := synthTrace(20, 100, func(i int) int64 { return int64(i) * 1e7 })
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{0.2, 0.5, 1.0} {
		a1, b1 := tr.LateFraction(tau)
		a2, b2 := got.LateFraction(tau)
		if a1 != a2 || b1 != b2 {
			t.Fatalf("tau %v: (%v,%v) vs (%v,%v)", tau, a1, b1, a2, b2)
		}
	}
}

func TestReadTraceCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"hello world\n",
		"# dmpstream-trace v1 mu=abc\npkt,gen_ns,at_ns,path\n",
		"# dmpstream-trace v1 payload=10\npkt,gen_ns,at_ns,path\n", // missing mu
		"# dmpstream-trace v1 mu=50\nwrong,header,here,x\n",
		"# dmpstream-trace v1 mu=50\npkt,gen_ns,at_ns,path\nnot,a,number,row\n",
	}
	for i, c := range cases {
		if _, err := ReadTraceCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReadTraceCSVIgnoresUnknownMetadata(t *testing.T) {
	in := "# dmpstream-trace v1 mu=10 future=stuff expected=1\npkt,gen_ns,at_ns,path\n0,1,2,0\n"
	tr, err := ReadTraceCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Mu != 10 || tr.Expected != 1 || len(tr.Arrivals) != 1 {
		t.Fatalf("%+v", tr)
	}
}

// Property: any synthetic trace round-trips exactly.
func TestPropertyTraceRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Mu: 1 + rng.Float64()*100, PayloadSize: rng.Intn(2000), Expected: int64(n)}
		for i := 0; i < int(n); i++ {
			tr.Arrivals = append(tr.Arrivals, Arrival{
				Pkt: uint32(rng.Intn(1 << 20)), Gen: rng.Int63(), At: rng.Int63(), Path: int32(rng.Intn(8)),
			})
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadTraceCSV(&buf)
		if err != nil {
			return false
		}
		if got.Mu != tr.Mu || got.Expected != tr.Expected || len(got.Arrivals) != len(tr.Arrivals) {
			return false
		}
		for i := range tr.Arrivals {
			if got.Arrivals[i] != tr.Arrivals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReadTraceCSVRejectsOutOfRange: metadata the analysis cannot use is
// refused at the door — a rate wire.Config would refuse, a payload size the
// wire cannot carry, an expected count below zero or beyond one packet per
// 32-bit number — and the edges of each range are accepted.
func TestReadTraceCSVRejectsOutOfRange(t *testing.T) {
	read := func(meta string) (*Trace, error) {
		return ReadTraceCSV(strings.NewReader("# dmpstream-trace v1 " + meta + "\npkt,gen_ns,at_ns,path\n0,1,2,0\n"))
	}
	for _, meta := range []string{
		"mu=50 expected=-1",
		"mu=50 expected=99999999999999",
		"mu=50 expected=4294967297",
		"mu=NaN expected=1",
		"mu=+Inf expected=1",
		"mu=1e-7 expected=1",
		"mu=2e9 expected=1",
		"mu=50 payload=-1 expected=1",
		"mu=50 payload=1048577 expected=1",
	} {
		if tr, err := read(meta); err == nil {
			t.Errorf("%s: accepted as %+v", meta, *tr)
		}
	}
	for _, tc := range []struct {
		meta     string
		mu       float64
		payload  int
		expected int64
	}{
		{"mu=1e-6 payload=0 expected=0", 1e-6, 0, 0},
		{"mu=1e9 payload=1048576 expected=4294967296", 1e9, 1 << 20, 1 << 32},
	} {
		tr, err := read(tc.meta)
		if err != nil {
			t.Errorf("%s: %v", tc.meta, err)
			continue
		}
		if tr.Mu != tc.mu || tr.PayloadSize != tc.payload || tr.Expected != tc.expected {
			t.Errorf("%s: read as µ %v, payload %d, expected %d", tc.meta, tr.Mu, tr.PayloadSize, tr.Expected)
		}
		if pb, ao := tr.LateFraction(math.Inf(1)); !(pb >= 0 && pb <= 1 && ao >= 0 && ao <= 1) {
			t.Errorf("%s: late fractions %v, %v outside [0, 1]", tc.meta, pb, ao)
		}
	}
}

// FuzzReadTraceCSV: every trace ReadTraceCSV accepts must write back out
// through WriteCSV and read back the same, and its analysis must answer
// without panicking, with late fractions within [0, 1]. Slacks and Missing
// return a slice as long as the expected count, up to 2³² entries, so they
// are run on traces of at most a million expected packets.
func FuzzReadTraceCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := synthTrace(20, 50, func(i int) int64 { return int64(i) * 1e7 }).WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("# dmpstream-trace v1 mu=10 future=stuff expected=1\npkt,gen_ns,at_ns,path\n0,1,2,0\n")
	f.Add("# dmpstream-trace v1 mu=50 payload=8 expected=3\npkt,gen_ns,at_ns,path\n2,5,9,1\n2,5,12,0\n7,0,-1,-3\n")
	f.Add("# dmpstream-trace v1 mu=50 expected=1\npkt,gen_ns,at_ns,path\n3,0,1,0\n4,0,1,0\n5,0,1,0\n") // none of them in the stream
	f.Add("# dmpstream-trace v1 mu=1e-6 expected=4294967296\npkt,gen_ns,at_ns,path\n4294967295,-9223372036854775808,9223372036854775807,2147483647\n")
	f.Add("# dmpstream-trace v1 mu=50 expected=-1\npkt,gen_ns,at_ns,path\n0,1,2,0\n")
	f.Add("# dmpstream-trace v1 mu=NaN expected=1\npkt,gen_ns,at_ns,path\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadTraceCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.WriteCSV(&out); err != nil {
			t.Fatalf("accepted trace does not write: %v", err)
		}
		back, err := ReadTraceCSV(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("written trace does not read back: %v\n%s", err, out.String())
		}
		if back.Mu != tr.Mu || back.PayloadSize != tr.PayloadSize || back.Expected != tr.Expected ||
			!slices.Equal(back.Arrivals, tr.Arrivals) {
			t.Fatalf("round trip changed the trace: %+v became %+v", *tr, *back)
		}
		for _, tau := range []float64{0, 1e-3, 1, 1e9} {
			pb, ao := tr.LateFraction(tau)
			if !(pb >= 0 && pb <= 1 && ao >= 0 && ao <= 1) {
				t.Fatalf("LateFraction(%v) = %v, %v: outside [0, 1]", tau, pb, ao)
			}
		}
		if tr.Expected > 1<<20 {
			return
		}
		for _, q := range []float64{0, 1e-3, 0.5, 1} {
			tr.RequiredDelay(q)
		}
		if n := len(tr.Slacks()); n < int(tr.Expected) {
			t.Fatalf("%d slacks for %d expected packets", n, tr.Expected)
		}
		if n := len(tr.Missing()); n > int(tr.Expected) {
			t.Fatalf("%d missing of %d expected packets", n, tr.Expected)
		}
	})
}
