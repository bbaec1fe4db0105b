package hub

import (
	"testing"

	"dmpstream/internal/wire"
)

func newToken(t *testing.T) wire.Token {
	t.Helper()
	tok, err := wire.NewToken()
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// unseal reopens the stream of a hub its generator sealed at Count, so a
// test can drive ticks by hand against paths that park instead of ending.
// Close seals it again.
func unseal(h *Hub) {
	h.mu.Lock()
	h.govMu.Lock()
	h.end.Store(-1)
	h.stopCh = make(chan struct{})
	h.govMu.Unlock()
	h.mu.Unlock()
}

// newExternalHub builds an ExternalSource hub for direct PublishAt tests.
func newExternalHub(t testing.TB, cfg Config) *Hub {
	t.Helper()
	cfg.ExternalSource = true
	if cfg.Stream.Mu == 0 {
		cfg.Stream.Mu = 100
	}
	if cfg.Stream.PayloadSize == 0 {
		cfg.Stream.PayloadSize = 32
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
