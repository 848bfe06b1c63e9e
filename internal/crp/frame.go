package crp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// The claim frame is the one record format of claim state: the durable
// store appends it to its write-ahead log, the replicated claim log streams
// it between verifier shards, and every Ledger changes only by applying
// one. Each frame is a fixed 16 bytes, and two kinds share the layout,
// distinguished by magic:
//
//	claim ("CRPW"):
//	  offset 0  magic uint32 LE
//	  offset 4  seed  uint64 LE
//	  offset 12 crc32 uint32 LE (IEEE, over bytes 0..11)
//
//	epoch transition ("CRPE"):
//	  offset 0  magic uint32 LE
//	  offset 4  from  uint32 LE (retired epoch)
//	  offset 8  to    uint32 LE (new epoch)
//	  offset 12 crc32 uint32 LE (IEEE, over bytes 0..11)

// FrameSize is the fixed size of every claim frame.
const FrameSize = 16

const (
	claimMagic      = 0x57505243 // "CRPW"
	transitionMagic = 0x45505243 // "CRPE"
)

// ErrBadFrame reports a frame whose size, magic, or CRC is invalid: disk
// or wire damage that must never be applied.
var ErrBadFrame = errors.New("crp: invalid claim frame")

// Frame is one decoded claim record: a seed claim (Transition == false) or
// an epoch transition (Transition == true).
type Frame struct {
	Transition bool
	Seed       uint64 // claim frames
	From, To   uint32 // transition frames
}

// Encode returns the frame's 16-byte wire and disk form.
func (f Frame) Encode() []byte {
	b := make([]byte, FrameSize)
	if f.Transition {
		binary.LittleEndian.PutUint32(b[0:4], transitionMagic)
		binary.LittleEndian.PutUint32(b[4:8], f.From)
		binary.LittleEndian.PutUint32(b[8:12], f.To)
	} else {
		binary.LittleEndian.PutUint32(b[0:4], claimMagic)
		binary.LittleEndian.PutUint64(b[4:12], f.Seed)
	}
	binary.LittleEndian.PutUint32(b[12:16], crc32.ChecksumIEEE(b[0:12]))
	return b
}

// ClaimFrame encodes a seed claim.
func ClaimFrame(seed uint64) []byte { return Frame{Seed: seed}.Encode() }

// TransitionFrame encodes an epoch transition, the commit point of a
// cutover.
func TransitionFrame(from, to uint32) []byte {
	return Frame{Transition: true, From: from, To: to}.Encode()
}

// DecodeFrame validates and decodes one frame. A short, bad-magic or
// CRC-failing frame returns ErrBadFrame.
func DecodeFrame(b []byte) (Frame, error) {
	if len(b) != FrameSize {
		return Frame{}, fmt.Errorf("%w: %d bytes, want %d", ErrBadFrame, len(b), FrameSize)
	}
	magic := binary.LittleEndian.Uint32(b[0:4])
	if magic != claimMagic && magic != transitionMagic {
		return Frame{}, fmt.Errorf("%w: unknown magic %#x", ErrBadFrame, magic)
	}
	if got, want := binary.LittleEndian.Uint32(b[12:16]), crc32.ChecksumIEEE(b[0:12]); got != want {
		return Frame{}, fmt.Errorf("%w: CRC %#x, want %#x", ErrBadFrame, got, want)
	}
	if magic == transitionMagic {
		return Frame{
			Transition: true,
			From:       binary.LittleEndian.Uint32(b[4:8]),
			To:         binary.LittleEndian.Uint32(b[8:12]),
		}, nil
	}
	return Frame{Seed: binary.LittleEndian.Uint64(b[4:12])}, nil
}
