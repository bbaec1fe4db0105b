package core

import (
	"bytes"
	"math/rand"
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
