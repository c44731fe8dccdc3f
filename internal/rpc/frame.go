package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"bess/internal/page"
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

// Method ids. The table below is part of the wire protocol: ids are append-only
// and never reassigned (the golden wire test pins them); "" marks a retired id,
// answered with ErrNoHandler. Id 0 is reserved for named-method frames.
var methodNames = [...]string{
	1:  "Hello",
	2:  "OpenDB",
	3:  "NewTx",
	4:  "RegisterType",
	5:  "Types",
	6:  "NewFileID",
	7:  "AddArea",
	8:  "CreateSegment",
	9:  "SegInfo",
	10: "", // retired: the slotted-part fetch (FetchSeg carries the whole image)
	11: "", // retired: the data-part fetch
	12: "FetchLarge",
	13: "FetchSeg",
	14: "Resolve",
	15: "Lock",
	16: "LockObject",
	17: "Commit",
	18: "Abort",
	19: "Prepare",
	20: "Decide",
	21: "SegmentsOf",
	22: "Released",
	23: "", // retired: the server-side large-object create (StoreLarge stores the content only)
	24: "AllocRun",
	25: "FreeRun",
	26: "ReadRun",
	27: "WriteRun",
	28: "NameBind",
	29: "NameLookup",
	30: "NameUnbind",
	31: "NameRemoveOID",
	32: "Callback",
	33: "ScanStart",
	34: "ScanData",
	35: "ScanCtl",
	36: "SnapOpen",
	37: "SnapClose",
	38: "SnapFetchSeg",
	39: "SnapScanStart",
	40: "StoreLarge",
}

var methodIDs = func() map[string]uint16 {
	m := make(map[string]uint16, len(methodNames))
	for id, name := range methodNames {
		if name != "" {
			m[name] = uint16(id)
		}
	}
	return m
}()

// frame is the parsed wire unit.
type frame struct {
	id     uint64
	flags  uint8
	method uint16 // 0 when the name travels inline (flagNamed)
	name   string // resolved method name ("" on replies)
	body   []byte
}

// payloadLen is the header's N: the body, after a named frame's inline name.
func (f *frame) payloadLen() int {
	if f.flags&flagNamed != 0 {
		return 2 + len(f.name) + len(f.body)
	}
	return len(f.body)
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
// and must not allocate beyond dst.
//
// TestAppendFrameAllocs pins its allocation budget.
func appendFrame(dst []byte, f *frame) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, f.id)
	dst = append(dst, f.flags)
	dst = binary.BigEndian.AppendUint16(dst, f.method)
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.payloadLen()))
	if f.flags&flagNamed != 0 {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.name)))
		dst = append(dst, f.name...)
	}
	dst = append(dst, f.body...)
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
	} else if f.flags&flagReply == 0 && int(f.method) < len(methodNames) {
		f.name = methodNames[f.method]
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
