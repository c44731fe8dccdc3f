package rpc

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"bess/internal/proto"
	"bess/internal/proto/prototest"
)

// TestGoldenWireFormat pins the frame encoding byte for byte. These bytes
// are the wire protocol: if this test fails, the change breaks every peer
// that speaks the old format — bump a version, don't edit the expectation.
func TestGoldenWireFormat(t *testing.T) {
	cases := []struct {
		name string
		f    frame
		want []byte
	}{
		{
			name: "request/table-method/body",
			f:    frame{id: 0x0102030405060708, method: 13, body: []byte{0xAA, 0xBB}},
			want: []byte{
				0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // id
				0x00,       // flags
				0x00, 0x0D, // method id (FetchSeg)
				0x00, 0x00, 0x00, 0x02, // payload length
				0xAA, 0xBB, // body
			},
		},
		{
			name: "request/named-method",
			f:    frame{id: 2, flags: flagNamed, name: "echo", body: []byte("hi")},
			want: []byte{
				0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02,
				0x04,       // flags: named
				0x00, 0x00, // method id 0
				0x00, 0x00, 0x00, 0x08, // payload: 2 + 4 name + 2 body
				0x00, 0x04, 'e', 'c', 'h', 'o',
				'h', 'i',
			},
		},
		{
			name: "stream/table-method/body",
			f:    frame{id: 7, flags: flagStream, method: 34, body: []byte{0xC0, 0xDE}},
			want: []byte{
				0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, // stream id
				0x08,       // flags: stream
				0x00, 0x22, // method id (ScanData)
				0x00, 0x00, 0x00, 0x02, // payload length
				0xC0, 0xDE, // body
			},
		},
		{
			name: "reply/empty",
			f:    frame{id: 3, flags: flagReply},
			want: []byte{
				0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
				0x01,
				0x00, 0x00,
				0x00, 0x00, 0x00, 0x00,
			},
		},
		{
			name: "reply/error",
			f:    frame{id: 4, flags: flagReply | flagError, body: []byte("boom")},
			want: []byte{
				0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04,
				0x03,
				0x00, 0x00,
				0x00, 0x00, 0x00, 0x04,
				'b', 'o', 'o', 'm',
			},
		},
		{
			name: "request/crc-trailer",
			f:    frame{id: 5, flags: flagCRC, method: 13, body: []byte{0xAA, 0xBB}},
			want: []byte{
				0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, // id
				0x10,       // flags: crc
				0x00, 0x0D, // method id (FetchSeg)
				0x00, 0x00, 0x00, 0x02, // payload length (trailer NOT counted)
				0xAA, 0xBB, // body
				0x9E, 0xF9, 0x4B, 0x0C, // CRC-32C of the 17 preceding bytes
			},
		},
		{
			name: "reply/crc-trailer",
			f:    frame{id: 5, flags: flagReply | flagCRC, body: []byte("okay")},
			want: []byte{
				0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05,
				0x11, // flags: reply | crc
				0x00, 0x00,
				0x00, 0x00, 0x00, 0x04,
				'o', 'k', 'a', 'y',
				0x96, 0x0C, 0x38, 0x3E,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := appendFrame(nil, &tc.f)
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("encoding changed:\n got %#v\nwant %#v", got, tc.want)
			}
			br := bufio.NewReader(bytes.NewReader(got))
			dec, err := readFrame(br)
			if err != nil || br.Buffered() != 0 {
				t.Fatalf("decode: %d bytes left, err=%v", br.Buffered(), err)
			}
			if dec.id != tc.f.id || dec.flags != tc.f.flags || dec.method != tc.f.method {
				t.Fatalf("decoded header = %+v", dec)
			}
			if !bytes.Equal(dec.body, tc.f.body) {
				t.Fatalf("decoded body = %q", dec.body)
			}
		})
	}
}

// TestMethodIDTablePinned pins the method table, the wire's id table, to
// testdata/methods.golden: every id in order with its name and its args and
// reply types (a stream's one message type), a retired id as "retired". Ids
// are part of the wire protocol: append-only, never reassigned, so a new
// method is one appended line, and a renumbered or reused id fails here.
func TestMethodIDTablePinned(t *testing.T) {
	samples := make(map[uint16]prototest.Method)
	for _, m := range prototest.Methods {
		samples[m.ID] = m
	}
	var got strings.Builder
	for id, d := range proto.Methods[1:] {
		id++
		m, ok := samples[d.ID]
		switch {
		case d.ID == 0:
			fmt.Fprintf(&got, "%d retired\n", id)
		case d.ID != uint16(id):
			t.Fatalf("table entry %d carries id %d", id, d.ID)
		case !ok:
			fmt.Fprintf(&got, "%d %s (no sample)\n", id, d.Name)
		case m.Reply == nil:
			fmt.Fprintf(&got, "%d %s stream %s\n", id, d.Name, prototest.Name(m.Args))
		default:
			fmt.Fprintf(&got, "%d %s %s %s\n", id, d.Name, prototest.Name(m.Args), prototest.Name(m.Reply))
		}
	}
	want, err := os.ReadFile("testdata/methods.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("method table differs from testdata/methods.golden — ids are the wire protocol:\n%s", got.String())
	}
}

func TestFrameDecodeRejects(t *testing.T) {
	valid := appendFrame(nil, &frame{id: 1, method: 13})
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"short header", valid[:frameHdrLen-1], io.ErrUnexpectedEOF},
		{"unknown flags", append(append([]byte(nil), valid[:8]...), append([]byte{0x80}, valid[9:]...)...), ErrBadFrame},
		{"named with method id", func() []byte {
			b := append([]byte(nil), valid...)
			b[8] = flagNamed
			return b
		}(), ErrBadFrame},
		{"stream with reply flag", func() []byte {
			b := append([]byte(nil), valid...)
			b[8] = flagStream | flagReply
			return b
		}(), ErrBadFrame},
		{"stream with error flag", func() []byte {
			b := append([]byte(nil), valid...)
			b[8] = flagStream | flagError
			return b
		}(), ErrBadFrame},
		{"truncated payload", func() []byte {
			b := append([]byte(nil), valid...)
			b[14] = 4 // claims 4 payload bytes, none follow
			return b
		}(), io.ErrUnexpectedEOF},
		{"oversized payload", func() []byte {
			b := append([]byte(nil), valid...)
			b[11], b[12], b[13], b[14] = 0xFF, 0xFF, 0xFF, 0xFF
			return b
		}(), ErrBadFrame},
		{"truncated inline name", func() []byte {
			f := frame{id: 1, flags: flagNamed, name: "echo"}
			b := appendFrame(nil, &f)
			b[16] = 0xFF // name length exceeds payload
			return b
		}(), ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := readFrame(bufio.NewReader(bytes.NewReader(tc.b))); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}
