package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"dmpstream/benchmark/trace"
)

// startProfiles begins CPU, mutex and block profiling into dir and returns
// the function that stops them and writes the files.
func startProfiles(dir string) (stop func() error, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		_ = cpu.Close() // the start error is the one to report
		return nil, err
	}
	runtime.SetMutexProfileFraction(100)
	runtime.SetBlockProfileRate(100_000) // one sample per 100 µs blocked
	return func() error {
		pprof.StopCPUProfile()
		runtime.SetMutexProfileFraction(0)
		runtime.SetBlockProfileRate(0)
		if err := cpu.Close(); err != nil {
			return err
		}
		for _, name := range []string{"mutex", "block"} {
			f, err := os.Create(filepath.Join(dir, name+".pprof"))
			if err != nil {
				return err
			}
			if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
				_ = f.Close() // the write error is the one to report
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// maxSpansPerChain bounds trace.json: a chain set past it is cut, whole
// chains first.
const maxSpansPerChain = 8000

// writeSpans writes dir/trace.json: for each named chain set, its spans
// (ids are local to the set) and the self time summed by span name.
func writeSpans(dir string, sets map[string][]trace.Span) error {
	type set struct {
		Spans  []trace.Span     `json:"spans"`
		SelfNs map[string]int64 `json:"self_ns_by_name"`
		Total  int              `json:"spans_recorded"`
	}
	doc := make(map[string]set, len(sets))
	for name, spans := range sets {
		self := make(map[string]int64)
		for _, s := range spans {
			self[s.Name] += s.Self
		}
		kept := spans
		if len(kept) > maxSpansPerChain {
			kept = kept[:maxSpansPerChain]
			for len(kept) > 0 && kept[len(kept)-1].Parent != -1 {
				kept = kept[:len(kept)-1] // drop the cut chain's children...
			}
			if len(kept) > 0 {
				kept = kept[:len(kept)-1] // ...and its root
			}
		}
		doc[name] = set{Spans: kept, SelfNs: self, Total: len(spans)}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
