package rpc

import (
	"bytes"
	"errors"
	"testing"
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
			dec, n, err := decodeFrame(got)
			if err != nil || n != len(got) {
				t.Fatalf("decode: n=%d err=%v", n, err)
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

// TestMethodIDTablePinned pins the method-id assignments. Ids are part of
// the wire protocol: append-only, never reassigned.
func TestMethodIDTablePinned(t *testing.T) {
	want := map[string]uint16{
		"Hello": 1, "OpenDB": 2, "NewTx": 3, "RegisterType": 4, "Types": 5,
		"NewFileID": 6, "AddArea": 7, "CreateSegment": 8, "SegInfo": 9,
		"FetchLarge": 12, "FetchSeg": 13, // 10 and 11 are retired
		"Resolve": 14, "Lock": 15, "LockObject": 16, "Commit": 17, "Abort": 18,
		"Prepare": 19, "Decide": 20, "SegmentsOf": 21, "Released": 22,
		"AllocRun": 24, "FreeRun": 25, "ReadRun": 26, // 23 is retired
		"WriteRun": 27, "NameBind": 28, "NameLookup": 29, "NameUnbind": 30,
		"NameRemoveOID": 31, "Callback": 32, "ScanStart": 33, "ScanData": 34,
		"ScanCtl": 35, "SnapOpen": 36, "SnapClose": 37, "SnapFetchSeg": 38,
		"SnapScanStart": 39, "StoreLarge": 40,
	}
	if len(methodIDs) != len(want) {
		t.Fatalf("method table has %d entries, want %d", len(methodIDs), len(want))
	}
	for name, id := range want {
		if got := methodIDs[name]; got != id {
			t.Fatalf("method %q = id %d, want %d", name, got, id)
		}
	}
}

func TestFrameDecodeRejects(t *testing.T) {
	valid := appendFrame(nil, &frame{id: 1, method: 13})
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short header", valid[:frameHdrLen-1]},
		{"unknown flags", append(append([]byte(nil), valid[:8]...), append([]byte{0x80}, valid[9:]...)...)},
		{"named with method id", func() []byte {
			b := append([]byte(nil), valid...)
			b[8] = flagNamed
			return b
		}()},
		{"stream with reply flag", func() []byte {
			b := append([]byte(nil), valid...)
			b[8] = flagStream | flagReply
			return b
		}()},
		{"stream with error flag", func() []byte {
			b := append([]byte(nil), valid...)
			b[8] = flagStream | flagError
			return b
		}()},
		{"truncated payload", func() []byte {
			b := append([]byte(nil), valid...)
			b[14] = 4 // claims 4 payload bytes, none follow
			return b
		}()},
		{"oversized payload", func() []byte {
			b := append([]byte(nil), valid...)
			b[11], b[12], b[13], b[14] = 0xFF, 0xFF, 0xFF, 0xFF
			return b
		}()},
		{"truncated inline name", func() []byte {
			f := frame{id: 1, flags: flagNamed, name: "echo"}
			b := appendFrame(nil, &f)
			b[16] = 0xFF // name length exceeds payload
			return b
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := decodeFrame(tc.b); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("err = %v, want ErrBadFrame", err)
			}
		})
	}
}
