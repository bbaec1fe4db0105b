package core

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// traceMagic heads the on-disk trace format.
const traceMagic = "# dmpstream-trace v1"

// WriteCSV serializes the trace: a metadata comment line, a header row, and
// one row per arrival. The format round-trips through ReadTraceCSV and is
// directly loadable by spreadsheet/plotting tools.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s mu=%g payload=%d expected=%d\n", traceMagic, t.Mu, t.PayloadSize, t.Expected)
	cw := csv.NewWriter(bw)
	if err := cw.Write([]string{"pkt", "gen_ns", "at_ns", "path"}); err != nil {
		return err
	}
	row := make([]string, 4)
	for _, a := range t.Arrivals {
		row[0] = strconv.FormatUint(uint64(a.Pkt), 10)
		row[1] = strconv.FormatInt(a.Gen, 10)
		row[2] = strconv.FormatInt(a.At, 10)
		row[3] = strconv.Itoa(int(a.Path))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadTraceCSV parses a trace written by WriteCSV.
func ReadTraceCSV(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	meta, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("core: trace metadata: %w", err)
	}
	meta = strings.TrimSpace(meta)
	if !strings.HasPrefix(meta, traceMagic) {
		return nil, fmt.Errorf("core: not a dmpstream trace (got %q)", firstN(meta, 40))
	}
	tr := &Trace{}
	for _, field := range strings.Fields(strings.TrimPrefix(meta, traceMagic)) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("core: malformed metadata field %q", field)
		}
		switch k {
		case "mu":
			tr.Mu, err = strconv.ParseFloat(v, 64)
		case "payload":
			tr.PayloadSize, err = strconv.Atoi(v)
		case "expected":
			tr.Expected, err = strconv.ParseInt(v, 10, 64)
		default:
			continue // forward compatibility: ignore unknown fields
		}
		if err != nil {
			return nil, fmt.Errorf("core: metadata field %q: %w", field, err)
		}
	}
	if tr.Mu <= 0 {
		return nil, fmt.Errorf("core: trace missing playback rate")
	}

	cr := csv.NewReader(br)
	cr.FieldsPerRecord = 4
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("core: trace header: %w", err)
	}
	if header[0] != "pkt" {
		return nil, fmt.Errorf("core: unexpected trace header %v", header)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: trace row: %w", err)
		}
		pkt, err1 := strconv.ParseUint(rec[0], 10, 32)
		gen, err2 := strconv.ParseInt(rec[1], 10, 64)
		at, err3 := strconv.ParseInt(rec[2], 10, 64)
		path, err4 := strconv.ParseInt(rec[3], 10, 32)
		for _, e := range []error{err1, err2, err3, err4} {
			if e != nil {
				return nil, fmt.Errorf("core: trace row %v: %w", rec, e)
			}
		}
		tr.Arrivals = append(tr.Arrivals, Arrival{Pkt: uint32(pkt), Path: int32(path), Gen: gen, At: at})
	}
	return tr, nil
}

func firstN(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}
