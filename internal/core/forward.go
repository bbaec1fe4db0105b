package core

import (
	"io"

	"dmpstream/internal/wire"
)

// The wire names the frozen benchmark module still spells core.X (see the
// package doc). Nothing in this module uses them.

type (
	Config      = wire.Config
	Token       = wire.Token
	Join        = wire.Join
	RejectCode  = wire.RejectCode
	RejectError = wire.RejectError
)

const (
	RejectServerFull = wire.RejectServerFull
	EndMarker        = wire.EndMarker
	FrameHeaderSize  = wire.FrameHeaderSize
)

func PutFrameHeader(frame []byte, pkt uint32, gen int64) { wire.PutFrameHeader(frame, pkt, gen) }
func ParseFrameHeader(b []byte) (uint32, int64, error)   { return wire.ParseFrameHeader(b) }
func ReadStreamHeader(r io.Reader) (float64, int, error) { return wire.ReadStreamHeader(r) }
func WriteJoin(w io.Writer, j Join) error                { return wire.WriteJoin(w, j) }
func WriteReject(w io.Writer, code RejectCode) error     { return wire.WriteReject(w, code) }
func WriteStreamHeader(w io.Writer, path, paths, payload int, mu float64) error {
	return wire.WriteStreamHeader(w, path, paths, payload, mu)
}
