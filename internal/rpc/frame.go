package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"bess/internal/page"
	"bess/internal/proto"
)

// Binary frame format.
//
// The wire unit is a length-prefixed binary frame with a fixed big-endian
// header:
//
//	offset  size  field
//	0       8     request id (stream id on stream frames)
//	8       1     flags (bit0 reply, bit1 error, bit2 named method, bit3 stream, bit4 crc)
//	9       2     method id (0 on replies and named-method frames)
//	11      4     payload length N
//	15      N     payload
//	15+N    4     CRC-32C of the preceding 15+N bytes — only when bit4 is set
//
// The checksum trailer (flagCRC) is optional and per-frame: a peer that
// enables checksums sets the bit on everything it sends, and a peer that
// receives a checksummed frame mirrors the setting — so one side opting in
// at handshake time upgrades the connection in both directions, while
// loopback benches that never opt in pay nothing. N never includes the
// trailer.
//
// The payload of a request is the method's argument message and a reply's
// payload is its result message, both in the internal/proto codec, or the
// error message when the error flag is set — either way the bytes travel
// exactly once (no inner encode of an outer frame, unlike the pre-E12
// double-gob protocol). Methods outside the fixed id table (flagNamed)
// prefix the payload with a 2-byte name length and the method name, keeping
// the protocol open to tests and probes without burning ids; the flag says
// nothing about the body.
//
// Stream frames (flagStream) are one-way: the id field names a stream (a
// scan id) instead of a pending request, no reply is ever matched, and the
// reply/error bits must be clear. They carry the push half of the scan
// pipeline (server→client data) and its flow control (client→server
// credit/cancel) — see DESIGN.md §6.
//
// Every length is bounds-checked before anything is allocated, so a corrupt
// or hostile prefix cannot drive a huge allocation, and a successful decode
// always re-encodes to the identical bytes (the encoding is canonical —
// FuzzFrameDecode holds the parser to this).
const (
	frameHdrLen = 15

	flagReply  uint8 = 1 << 0 // frame answers the request with the same id
	flagError  uint8 = 1 << 1 // reply payload is an error message
	flagNamed  uint8 = 1 << 2 // payload starts with u16 name length + name
	flagStream uint8 = 1 << 3 // one-way stream frame: id is a stream id, no reply
	flagCRC    uint8 = 1 << 4 // CRC-32C trailer follows the payload

	flagsKnown = flagReply | flagError | flagNamed | flagStream | flagCRC

	// maxPayload bounds one frame (a commit can ship many segment images).
	maxPayload = 1 << 30
)

// ErrBadFrame reports bytes that are not a valid frame encoding.
var ErrBadFrame = errors.New("rpc: bad frame encoding")

// ErrFrameChecksum reports a CRC-flagged frame whose trailer did not match
// its bytes: the wire corrupted the frame in flight. The connection is
// unframeable past this point and is shut down.
var ErrFrameChecksum = errors.New("rpc: frame checksum mismatch")

// frame is the wire unit. A frame read off the wire has its body; a frame
// being sent has either a message (msg), which appendFrame encodes straight
// into the send batch, or — the bytes already encoded — a body.
type frame struct {
	id     uint64
	flags  uint8
	method uint16 // 0 when the name travels inline (flagNamed)
	name   string // resolved method name ("" on replies)
	body   []byte
	msg    proto.Message
	size   int // msg's encoded length (setMsg)
}

// setMsg makes m the body of f, sizing it: a message that cannot be encoded
// fails here, before its sender queues anything.
func (f *frame) setMsg(m proto.Message) error {
	n, err := proto.Size(m)
	if err != nil {
		return err
	}
	f.msg, f.size = m, n
	return nil
}

// payloadLen is the header's N: the body, after a named frame's inline name.
func (f *frame) payloadLen() int {
	n := len(f.body)
	if f.msg != nil {
		n = f.size
	}
	if f.flags&flagNamed != 0 {
		return 2 + len(f.name) + n
	}
	return n
}

// wireLen is the number of bytes appendFrame adds for f.
func (f *frame) wireLen() int {
	if f.flags&flagCRC != 0 {
		return frameHdrLen + f.payloadLen() + 4
	}
	return frameHdrLen + f.payloadLen()
}

// appendFrame serializes f onto dst, returning the extended slice. It runs
// once per frame on the send path, straight into the peer's pending batch,
// and must not allocate beyond dst: a message is encoded in place, its
// length put in the header after it. A message that fails to encode leaves
// dst as it was.
//
// TestAppendFrameAllocs pins its allocation budget.
func appendFrame(dst []byte, f *frame) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, f.id)
	dst = append(dst, f.flags)
	dst = binary.BigEndian.AppendUint16(dst, f.method)
	dst = binary.BigEndian.AppendUint32(dst, 0) // payload length, below
	if f.flags&flagNamed != 0 {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.name)))
		dst = append(dst, f.name...)
	}
	if f.msg == nil {
		dst = append(dst, f.body...)
	} else {
		var err error
		if dst, err = proto.Append(dst, f.msg); err != nil {
			return dst[:start]
		}
	}
	binary.BigEndian.PutUint32(dst[start+11:], uint32(len(dst)-start-frameHdrLen))
	if f.flags&flagCRC != 0 {
		dst = binary.BigEndian.AppendUint32(dst, page.Checksum(dst[start:]))
	}
	return dst
}

// parseHeader validates a fixed header and returns the partial frame plus
// the payload length still to read. It runs once per received frame and
// allocates only on the (cold) malformed-header paths.
//
// TestParseHeaderAllocs pins its allocation budget.
func parseHeader(hdr *[frameHdrLen]byte) (frame, int, error) {
	f := frame{
		id:     binary.BigEndian.Uint64(hdr[0:8]),
		flags:  hdr[8],
		method: binary.BigEndian.Uint16(hdr[9:11]),
	}
	plen := binary.BigEndian.Uint32(hdr[11:15])
	if f.flags&^flagsKnown != 0 {
		return frame{}, 0, fmt.Errorf("%w: unknown flags %#02x", ErrBadFrame, f.flags)
	}
	if f.flags&flagNamed != 0 && f.method != 0 {
		return frame{}, 0, fmt.Errorf("%w: named frame carries method id %d", ErrBadFrame, f.method)
	}
	if f.flags&flagStream != 0 && f.flags&(flagReply|flagError) != 0 {
		return frame{}, 0, fmt.Errorf("%w: stream frame carries reply flags %#02x", ErrBadFrame, f.flags)
	}
	if plen > maxPayload {
		return frame{}, 0, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadFrame, plen, maxPayload)
	}
	return f, int(plen), nil
}

// setPayload splits payload into inline name and body, resolving table
// method ids. The body aliases payload; callers must hand over ownership.
func (f *frame) setPayload(payload []byte) error {
	if f.flags&flagNamed != 0 {
		if len(payload) < 2 {
			return fmt.Errorf("%w: truncated method name length", ErrBadFrame)
		}
		n := int(binary.BigEndian.Uint16(payload[0:2]))
		if len(payload)-2 < n {
			return fmt.Errorf("%w: method name length %d exceeds %d remaining bytes", ErrBadFrame, n, len(payload)-2)
		}
		f.name = string(payload[2 : 2+n])
		payload = payload[2+n:]
	} else if f.flags&flagReply == 0 && int(f.method) < len(proto.Methods) {
		f.name = proto.Methods[f.method].Name // the handler's name
	}
	if len(payload) > 0 {
		f.body = payload
	} else {
		f.body = nil
	}
	return nil
}

// readFrame reads and parses one frame from br. The body is allocated for
// this frame and never reused: it belongs to whoever the frame is handed to
// (a Handler, a StreamHandler, the caller of CallRaw), who may keep it, view
// into it and write to it.
func readFrame(br *bufio.Reader) (frame, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return frame{}, err
	}
	f, plen, err := parseHeader(&hdr)
	if err != nil {
		return frame{}, err
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, err
	}
	if f.flags&flagCRC != 0 {
		var trailer [4]byte
		if _, err := io.ReadFull(br, trailer[:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return frame{}, err
		}
		crc := page.Checksum(hdr[:])
		crc = page.ChecksumUpdate(crc, payload)
		if got := binary.BigEndian.Uint32(trailer[:]); got != crc {
			return frame{}, fmt.Errorf("%w: frame id %d: crc %08x want %08x", ErrFrameChecksum, f.id, crc, got)
		}
	}
	if err := f.setPayload(payload); err != nil {
		return frame{}, err
	}
	return f, nil
}
