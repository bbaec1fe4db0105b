package wire

import (
	"fmt"
	"time"
)

// Config describes the video source: the stream both ends of a path agree
// on. A broadcast hub (hub.Config.Stream) reads Mu, PayloadSize, Count,
// Fill and WriteStallTimeout, and ignores ResendWindow: a hub keeps its
// own, hub.Config.ResendWindow. The paper's server (core.Server) is a hub
// with one subscriber; it reads every field, and hands ResendWindow to its
// hub as the hub's own.
type Config struct {
	Mu          float64 // generation/playback rate, packets per second
	PayloadSize int     // payload bytes per packet (default 1000)
	Count       int64   // packets to generate; 0 = run until Stop
	// Fill, if set, fills each packet's payload (e.g. with encoded media).
	// It must be a pure function of the packet number — the same bytes on
	// every call for one packet — and safe to call concurrently: a hub
	// renders a packet when it generates it, and again when a catch-up or a
	// resend needs one its ring no longer keeps.
	Fill func(pkt uint32, buf []byte)
	// WriteStallTimeout bounds each per-path Write: a path whose connection
	// stalls longer fails with a timeout error, which is terminal for the
	// path, instead of blocking forever. 0 (the default) keeps blocking
	// writes.
	WriteStallTimeout time.Duration
	// ResendWindow, when positive, keeps the last ResendWindow packets each
	// path wrote; when a path dies, that window is returned to the server
	// queue so a surviving path retransmits it. This closes the in-flight
	// loss hole a dead TCP connection leaves (bytes acknowledged to the
	// sender's kernel but never delivered). Packets the client had in fact
	// already received arrive twice and are deduplicated by the Receiver.
	// 0 (the default) requeues only the packets of the write in hand.
	ResendWindow int
}

func (c Config) withDefaults() Config {
	if c.PayloadSize == 0 {
		c.PayloadSize = 1000
	}
	return c
}

func (c Config) validate() error {
	// The stream header carries µ in micro-packets/s and the generators
	// sleep time.Second/µ per packet, so a rate below 1e-6 goes on the
	// wire as 0 and one above 1e9 paces nothing (NaN fails both).
	if !(c.Mu*1e6 >= 1) || !(float64(time.Second)/c.Mu >= 1) {
		return fmt.Errorf("core: rate %v packets/s: want finite, within [1e-6, 1e9]", c.Mu)
	}
	if c.PayloadSize < 0 || c.PayloadSize > 1<<20 {
		return fmt.Errorf("core: payload size %d out of range", c.PayloadSize)
	}
	if c.Count < 0 {
		return fmt.Errorf("core: count %d < 0", c.Count)
	}
	if c.WriteStallTimeout < 0 {
		return fmt.Errorf("core: write stall timeout %v < 0", c.WriteStallTimeout)
	}
	if c.ResendWindow < 0 || c.ResendWindow > 1<<16 {
		return fmt.Errorf("core: resend window %d out of range", c.ResendWindow)
	}
	return nil
}

// Normalized applies defaults and validates: every consumer builds its
// sender from the normalized copy.
func (c Config) Normalized() (Config, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
