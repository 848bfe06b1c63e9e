// Package attest implements the PUFatt remote attestation protocol of
// Section 3 (Figure 2): a verifier V challenges an embedded prover P with a
// random attestation challenge r0 and PUF challenge x0; P computes the
// attestation response by interleaving the SWATT-style memory checksum with
// PUF() invocations on its own ALUs; V accepts only if the response arrives
// within the time bound δ and matches the value recomputed through
// PUF.Emulate() (or a CRP database).
//
// The package works entirely on a simulated clock: the prover's compute
// time comes from the cycle-accurate MCU, and network costs from an
// explicit Link model (latency + bandwidth). This also makes the
// PUF-as-oracle bandwidth argument of Section 4.2 directly measurable.
package attest

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"pufatt/internal/core"
	"pufatt/internal/telemetry"
)

// Challenge is the verifier's message to the prover.
//
// Epoch is the device reconfiguration epoch the verifier claimed the PUF
// seed under (PR 6). Epoch 0 — the manufacturing configuration — encodes
// as the original 16-byte challenge body, so epoch-unaware peers keep
// interoperating; a nonzero epoch travels as a trailing extension word,
// and a prover whose device sits at a different epoch fails the session
// closed as a rejection (never as transport).
type Challenge struct {
	Session uint64
	Nonce   uint32 // r0: the attestation challenge
	PUFSeed uint32 // x0: the initial PUF challenge perturbation
	Epoch   uint32 // device reconfiguration epoch the seed belongs to
}

// EffectiveNonce combines r0 and x0 into the checksum's working nonce; both
// sides compute it identically.
func (c Challenge) EffectiveNonce() uint32 { return c.Nonce ^ core.Mix32(c.PUFSeed) }

// Response is the prover's message to the verifier: the checksum state and
// the helper-data stream of every PUF() invocation, in order.
type Response struct {
	Session uint64
	Tag     [8]uint32
	Helpers []uint64 // 8 per chunk, 26 significant bits each
	// Epoch echoes the prover device's reconfiguration epoch, letting the
	// verifier distinguish "wrong device" from "right device, stale
	// enrollment". Like Challenge.Epoch it is wire-elided when zero.
	Epoch uint32
}

// NewChallenge draws a fresh random challenge using crypto/rand (protocol
// nonces must be unpredictable; the simulation PRNGs are not used here).
func NewChallenge(session uint64) (Challenge, error) {
	var buf [8]byte
	if _, err := io.ReadFull(rand.Reader, buf[:]); err != nil {
		return Challenge{}, fmt.Errorf("attest: drawing challenge: %w", err)
	}
	return Challenge{
		Session: session,
		Nonce:   binary.LittleEndian.Uint32(buf[0:4]),
		PUFSeed: binary.LittleEndian.Uint32(buf[4:8]),
	}, nil
}

// Wire sizes in bits, used by the Link model and the bandwidth analysis.
const (
	ChallengeBits = (8 + 4 + 4) * 8
	// HelperBitsPerWord is the significant helper payload per raw response
	// (the RM(1,5) syndrome width; the 16-bit variant uses 11 of these).
	HelperBitsPerWord = 26
)

// Bits returns the response's wire size in bits (tag + packed helpers +
// framing, plus the epoch extension word when present).
func (r Response) Bits() int {
	bits := (8+32)*8 + len(r.Helpers)*HelperBitsPerWord + 32
	if r.Epoch != 0 {
		bits += 32
	}
	return bits
}

// Bits returns the challenge's wire size in bits, including the epoch
// extension word when present.
func (c Challenge) Bits() int {
	if c.Epoch != 0 {
		return ChallengeBits + 32
	}
	return ChallengeBits
}

// --- binary codec (validated frames over an io stream) ---
//
// Every protocol message travels in a self-describing frame built for a
// lossy, adversarial channel:
//
//	offset 0  magic    uint16 LE (frameMagic)
//	offset 2  version  byte      (frameVersion)
//	offset 3  type     byte      (frameChallenge | frameResponse | frameTime)
//	offset 4  length   uint32 LE (body bytes, bounded by maxFrame)
//	offset 8  crc32    uint32 LE (IEEE, over the body)
//	offset 12 body
//
// The magic/version pair rejects cross-protocol and cross-version traffic
// before any allocation, the length bound defeats hostile prefixes, the
// type byte catches reordered or duplicated frames, and the CRC detects
// in-flight corruption (it is an integrity check against faults, not a MAC
// — authenticity comes from the PUF response itself).
//
// Version 2 frames additionally carry an optional extension block between
// the header and the payload, used today for cross-process trace
// propagation:
//
//	offset 0  extLen  uint16 LE (extension bytes; 0 = no extension)
//	offset 2  ext     extLen bytes
//	offset 2+extLen   payload (identical to the v1 body)
//
// The trace extension is traceID(8) || spanID(8) || crc32(4) over the 16 ID
// bytes. The frame-level CRC covers the whole v2 body (extension included),
// so channel corruption is still caught by the outer check; the inner CRC
// exists so a decoder that finds the IDs mangled (or an extension it does
// not understand) can DROP the trace context and keep the payload — trace
// propagation is observability, and observability must never kill a
// session. Writers emit v2 exactly when they carry a valid trace context
// and v1 otherwise; decoders accept both.

// Frame validation errors. All of them are transport-class faults: they say
// the channel mangled a frame, not that the prover failed attestation.
var (
	// ErrFrameTooLarge guards the decoder against hostile length prefixes.
	ErrFrameTooLarge = errors.New("attest: frame exceeds limit")
	// ErrBadMagic means the stream does not carry this protocol.
	ErrBadMagic = errors.New("attest: bad frame magic")
	// ErrBadVersion means the peer speaks an unknown protocol revision.
	ErrBadVersion = errors.New("attest: unsupported frame version")
	// ErrFrameType means a frame of the wrong type arrived (reordered or
	// duplicated traffic).
	ErrFrameType = errors.New("attest: unexpected frame type")
	// ErrChecksum means the frame body failed its CRC32 integrity check.
	ErrChecksum = errors.New("attest: frame checksum mismatch")
	// ErrTraceExt means a v2 frame's extension block is structurally
	// malformed (its declared length overruns the body). A mangled
	// extension *content* is not an error — the decoder drops the trace
	// context and keeps the payload — but a length that lies about the
	// frame's layout makes the payload boundary itself untrustworthy.
	ErrTraceExt = errors.New("attest: malformed frame extension")
)

const (
	frameMagic         uint16 = 0xA77E
	frameVersion       byte   = 1
	frameVersionTraced byte   = 2
	headerSize                = 12
	maxFrame                  = 1 << 22

	// traceExtSize is the trace extension block: traceID(8) + spanID(8) +
	// crc32(4) over the 16 ID bytes.
	traceExtSize = 20

	frameChallenge byte = 0x01
	frameResponse  byte = 0x02
	frameTime      byte = 0x03
)

// encodeTraceExt renders the 20-byte trace extension block.
func encodeTraceExt(tc telemetry.TraceContext) []byte {
	ext := make([]byte, traceExtSize)
	binary.LittleEndian.PutUint64(ext[0:], uint64(tc.Trace))
	binary.LittleEndian.PutUint64(ext[8:], uint64(tc.Span))
	binary.LittleEndian.PutUint32(ext[16:], crc32.ChecksumIEEE(ext[:16]))
	return ext
}

// decodeTraceExt recovers a trace context from an extension block. A block
// of the wrong size (an extension this revision does not know) or with a
// failed inner CRC yields the zero context — the payload's validity is the
// outer CRC's business, not this block's.
func decodeTraceExt(ext []byte) (telemetry.TraceContext, bool) {
	if len(ext) != traceExtSize {
		return telemetry.TraceContext{}, false
	}
	if crc32.ChecksumIEEE(ext[:16]) != binary.LittleEndian.Uint32(ext[16:]) {
		tel.TraceHeaders.With("corrupt").Inc()
		return telemetry.TraceContext{}, false
	}
	return telemetry.TraceContext{
		Trace: telemetry.TraceID(binary.LittleEndian.Uint64(ext[0:])),
		Span:  telemetry.SpanID(binary.LittleEndian.Uint64(ext[8:])),
	}, true
}

// writeFrame emits one validated v1 frame in a single Write call, so stream
// fault injectors (FaultyConn) can drop/corrupt/duplicate at frame
// granularity.
func writeFrame(w io.Writer, ftype byte, body []byte) error {
	return writeFrameCtx(w, ftype, body, telemetry.TraceContext{})
}

// writeFrameCtx emits one validated frame, attaching the trace context as a
// v2 extension when it is valid (a v1 frame otherwise). Still a single
// Write call.
func writeFrameCtx(w io.Writer, ftype byte, body []byte, tc telemetry.TraceContext) error {
	traced := tc.Valid()
	extra := 0
	if traced {
		extra = 2 + traceExtSize
	}
	if len(body)+extra > maxFrame {
		return ErrFrameTooLarge
	}
	buf := make([]byte, headerSize+extra+len(body))
	binary.LittleEndian.PutUint16(buf[0:], frameMagic)
	buf[3] = ftype
	if traced {
		buf[2] = frameVersionTraced
		binary.LittleEndian.PutUint16(buf[headerSize:], traceExtSize)
		copy(buf[headerSize+2:], encodeTraceExt(tc))
	} else {
		buf[2] = frameVersion
	}
	copy(buf[headerSize+extra:], body)
	binary.LittleEndian.PutUint32(buf[4:], uint32(extra+len(body)))
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(buf[headerSize:]))
	_, err := w.Write(buf)
	if err == nil {
		tel.FramesSent.With(frameTypeName(ftype)).Inc()
		if traced {
			tel.TraceHeaders.With("sent").Inc()
		}
	}
	return err
}

// readFrame decodes and validates one frame of the wanted type, discarding
// any trace context.
func readFrame(r io.Reader, want byte) ([]byte, error) {
	body, _, err := readFrameCtx(r, want)
	return body, err
}

// readFrameCtx decodes and validates one frame of the wanted type,
// returning its payload and any trace context it carried. Both frame
// versions are accepted: a v1 frame yields the zero context, and a v2 frame
// whose extension is unknown or fails its inner CRC yields the zero context
// with the payload intact.
func readFrameCtx(r io.Reader, want byte) ([]byte, telemetry.TraceContext, error) {
	var tc telemetry.TraceContext
	head := make([]byte, headerSize)
	if _, err := io.ReadFull(r, head); err != nil {
		// A clean EOF before any header byte is end-of-stream, not a
		// mangled frame; everything else is a transport rejection.
		if err != io.EOF {
			tel.FramesRejected.With("io").Inc()
		}
		return nil, tc, err
	}
	if binary.LittleEndian.Uint16(head[0:]) != frameMagic {
		tel.FramesRejected.With("magic").Inc()
		return nil, tc, ErrBadMagic
	}
	version := head[2]
	if version != frameVersion && version != frameVersionTraced {
		tel.FramesRejected.With("version").Inc()
		return nil, tc, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	if head[3] != want {
		tel.FramesRejected.With("type").Inc()
		return nil, tc, fmt.Errorf("%w: got 0x%02x, want 0x%02x", ErrFrameType, head[3], want)
	}
	n := binary.LittleEndian.Uint32(head[4:])
	if n > maxFrame {
		tel.FramesRejected.With("length").Inc()
		return nil, tc, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		tel.FramesRejected.With("io").Inc()
		return nil, tc, err
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(head[8:]) {
		tel.FramesRejected.With("checksum").Inc()
		return nil, tc, ErrChecksum
	}
	if version == frameVersionTraced {
		if len(body) < 2 {
			tel.FramesRejected.With("trace_ext").Inc()
			return nil, tc, fmt.Errorf("%w: v2 body of %d bytes", ErrTraceExt, len(body))
		}
		extLen := int(binary.LittleEndian.Uint16(body[0:]))
		if 2+extLen > len(body) {
			tel.FramesRejected.With("trace_ext").Inc()
			return nil, tc, fmt.Errorf("%w: extension of %d bytes in %d-byte body", ErrTraceExt, extLen, len(body))
		}
		if got, ok := decodeTraceExt(body[2 : 2+extLen]); ok {
			tc = got
			tel.TraceHeaders.With("received").Inc()
		}
		body = body[2+extLen:]
	}
	return body, tc, nil
}

// WriteChallenge encodes a challenge frame.
func WriteChallenge(w io.Writer, c Challenge) error {
	return WriteChallengeTraced(w, c, telemetry.TraceContext{})
}

// WriteChallengeTraced encodes a challenge frame carrying the verifier's
// trace context, so the prover can parent its serving span into the same
// trace. An invalid context (or disabled wire tracing) falls back to a
// plain v1 frame.
func WriteChallengeTraced(w io.Writer, c Challenge, tc telemetry.TraceContext) error {
	size := 16
	if c.Epoch != 0 {
		size = 20
	}
	body := make([]byte, size)
	binary.LittleEndian.PutUint64(body[0:], c.Session)
	binary.LittleEndian.PutUint32(body[8:], c.Nonce)
	binary.LittleEndian.PutUint32(body[12:], c.PUFSeed)
	if c.Epoch != 0 {
		binary.LittleEndian.PutUint32(body[16:], c.Epoch)
	}
	return writeFrameCtx(w, frameChallenge, body, tc)
}

// ReadChallenge decodes a challenge frame.
func ReadChallenge(r io.Reader) (Challenge, error) {
	ch, _, err := ReadChallengeTraced(r)
	return ch, err
}

// ReadChallengeTraced decodes a challenge frame and the verifier's trace
// context when the frame carried one (the zero context otherwise — v1
// frames and frames whose trace extension failed its inner CRC decode
// identically except for the context).
func ReadChallengeTraced(r io.Reader) (Challenge, telemetry.TraceContext, error) {
	body, tc, err := readFrameCtx(r, frameChallenge)
	if err != nil {
		return Challenge{}, tc, err
	}
	if len(body) != 16 && len(body) != 20 {
		return Challenge{}, tc, fmt.Errorf("attest: challenge frame of %d bytes", len(body))
	}
	ch := Challenge{
		Session: binary.LittleEndian.Uint64(body[0:]),
		Nonce:   binary.LittleEndian.Uint32(body[8:]),
		PUFSeed: binary.LittleEndian.Uint32(body[12:]),
	}
	if len(body) == 20 {
		ch.Epoch = binary.LittleEndian.Uint32(body[16:])
	}
	return ch, tc, nil
}

// WriteResponse encodes a response frame. A nonzero epoch travels as a
// trailing uint32 extension word; the two body lengths (44+8n vs 48+8n)
// are never congruent mod 8, so the decoder distinguishes them without a
// flag byte, and epoch-0 traffic is byte-identical to the pre-epoch wire.
func WriteResponse(w io.Writer, resp Response) error {
	size := 8 + 32 + 4 + 8*len(resp.Helpers)
	if resp.Epoch != 0 {
		size += 4
	}
	body := make([]byte, size)
	binary.LittleEndian.PutUint64(body[0:], resp.Session)
	for i, c := range resp.Tag {
		binary.LittleEndian.PutUint32(body[8+4*i:], c)
	}
	binary.LittleEndian.PutUint32(body[40:], uint32(len(resp.Helpers)))
	for i, h := range resp.Helpers {
		binary.LittleEndian.PutUint64(body[44+8*i:], h)
	}
	if resp.Epoch != 0 {
		binary.LittleEndian.PutUint32(body[44+8*len(resp.Helpers):], resp.Epoch)
	}
	return writeFrame(w, frameResponse, body)
}

// ReadResponse decodes a response frame.
func ReadResponse(r io.Reader) (Response, error) {
	body, err := readFrame(r, frameResponse)
	if err != nil {
		return Response{}, err
	}
	if len(body) < 44 {
		return Response{}, fmt.Errorf("attest: response frame of %d bytes", len(body))
	}
	var resp Response
	resp.Session = binary.LittleEndian.Uint64(body[0:])
	for i := range resp.Tag {
		resp.Tag[i] = binary.LittleEndian.Uint32(body[8+4*i:])
	}
	n := int(binary.LittleEndian.Uint32(body[40:]))
	switch {
	case n >= 0 && len(body) == 44+8*n:
		// pre-epoch body: epoch 0 implied
	case n >= 0 && len(body) == 48+8*n:
		resp.Epoch = binary.LittleEndian.Uint32(body[44+8*n:])
	default:
		return Response{}, fmt.Errorf("attest: response frame with %d helpers but %d bytes", n, len(body))
	}
	resp.Helpers = make([]uint64, n)
	for i := range resp.Helpers {
		resp.Helpers[i] = binary.LittleEndian.Uint64(body[44+8*i:])
	}
	return resp, nil
}
