package rpc

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"bess/internal/proto"
	"bess/internal/proto/prototest"
)

// grown returns a deep copy of m in which every byte field holds proto.MinRef
// bytes or more — so that an in-place encoding leaves each one where it is —
// each of its own pattern.
func grown(m proto.Message) proto.Message {
	seed := byte(1)
	var grow func(v reflect.Value) reflect.Value
	grow = func(v reflect.Value) reflect.Value {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return v
			}
			c := reflect.New(v.Elem().Type())
			c.Elem().Set(grow(v.Elem()))
			return c
		case reflect.Struct:
			c := reflect.New(v.Type()).Elem()
			c.Set(v)
			for i := range v.NumField() {
				if c.Field(i).CanSet() {
					c.Field(i).Set(grow(v.Field(i)))
				}
			}
			return c
		case reflect.Slice:
			if v.Type().Elem().Kind() == reflect.Uint8 {
				seed++
				b := bytes.Repeat([]byte{seed}, proto.MinRef+int(seed))
				return reflect.ValueOf(b).Convert(v.Type())
			}
			c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
			for i := range v.Len() {
				c.Index(i).Set(grow(v.Index(i)))
			}
			return c
		}
		return v
	}
	return grow(reflect.ValueOf(m)).Interface().(proto.Message)
}

// splice is the frame appendFrameRefs leaves in dst and refs: dst with each
// ref's section put in where it belongs.
func splice(dst []byte, refs []proto.Ref) []byte {
	var out []byte
	at := 0
	for _, r := range refs {
		out = append(append(out, dst[at:r.At]...), r.Data...)
		at = r.At
	}
	return append(out, dst[at:]...)
}

// TestInPlaceSectionsAreTheCopiedEncoding: for every method's args and reply,
// as sampled and with every byte section grown past proto.MinRef, a frame
// whose large sections stay in place is byte for byte the frame that copies
// them — its length, its nested lengths and its CRC trailer count the
// sections where they belong — both as appendFrameRefs leaves it and as a
// peer writes it, with and without the trailer.
func TestInPlaceSectionsAreTheCopiedEncoding(t *testing.T) {
	for _, crc := range []bool{false, true} {
		c := newCaptureConn()
		p := NewPeer(c)
		if crc {
			p.EnableChecksums()
		}
		for _, m := range prototest.Methods {
			for _, sample := range []struct {
				kind  string
				flags uint8
				msg   proto.Message
			}{{"args", 0, m.Args}, {"reply", flagReply, m.Reply}} {
				if sample.msg == nil {
					continue
				}
				for _, size := range []string{"sampled", "grown"} {
					msg := sample.msg
					if size == "grown" {
						msg = grown(msg)
					}
					t.Run(fmt.Sprintf("%s/%s/%s/crc=%v", m.Name, sample.kind, size, crc), func(t *testing.T) {
						f := frame{id: 9, flags: sample.flags}
						if crc {
							f.flags |= flagCRC
						}
						if sample.flags&flagReply == 0 {
							f.setMethod(m.Desc)
						}
						if err := f.setMsg(msg); err != nil {
							t.Fatal(err)
						}
						want := appendFrame(nil, &f)
						var refs []proto.Ref
						dst := appendFrameRefs(nil, &refs, &f)
						if got := splice(dst, refs); !bytes.Equal(got, want) {
							t.Fatalf("in place:\n got %x\nwant %x", got, want)
						}
						if size == "grown" && bytes.Contains(want, bytes.Repeat([]byte{2}, proto.MinRef)) && len(refs) == 0 {
							t.Fatal("a grown section was copied, not left in place")
						}
						if err := p.send(&f); err != nil {
							t.Fatal(err)
						}
						if got := c.take(); !bytes.Equal(got, want) {
							t.Fatalf("through the batch: %d bytes, want %d", len(got), len(want))
						}
					})
				}
			}
		}
		p.Close()
	}
}

// gateConn is a captureConn whose first write waits until open is closed.
type gateConn struct {
	*captureConn
	open  chan struct{}
	first sync.Once
}

func (c *gateConn) Write(b []byte) (int, error) {
	c.first.Do(func() { <-c.open })
	return c.captureConn.Write(b)
}

// TestCoalescedSectionsDecodeIntact: two senders queue a frame each, with a
// large section of its own, while another sender's write is on the socket;
// the leader's next pass writes both in one batch, and both decode intact.
func TestCoalescedSectionsDecodeIntact(t *testing.T) {
	c := &gateConn{captureConn: newCaptureConn(), open: make(chan struct{})}
	p := NewPeer(c)
	defer p.Close()
	p.EnableChecksums()
	sections := [][]byte{bytes.Repeat([]byte{0xA1}, 3*proto.MinRef), bytes.Repeat([]byte{0xB2}, 5*proto.MinRef+7)}
	errs := make(chan error, 3)
	send := func(id uint32, data []byte) {
		f := frame{id: uint64(id), flags: flagStream}
		f.setMethod(proto.StreamScanData.Desc)
		if err := f.setMsg(&proto.ScanBatch{Seq: id, Images: []proto.SegImage{{Data: data}}}); err != nil {
			errs <- err
			return
		}
		errs <- p.send(&f)
	}
	queued := func(n uint64) {
		for {
			p.wmu.Lock()
			seq := p.wseq
			p.wmu.Unlock()
			if seq >= n {
				return
			}
			runtime.Gosched()
		}
	}
	go send(1, []byte("small"))
	queued(1)
	go send(2, sections[0])
	go send(3, sections[1])
	queued(3)
	close(c.open)
	for range 3 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := p.WireStats(); st.Flushes != 2 || st.Coalesced < 1 {
		t.Fatalf("%d flushes, %d coalesced: the two large frames did not share a batch", st.Flushes, st.Coalesced)
	}
	br := bufio.NewReader(bytes.NewReader(c.take()))
	got := make(map[uint32][]byte)
	for range 3 {
		f, err := readFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b proto.ScanBatch
		if err := proto.Decode(f.body, &b); err != nil {
			t.Fatal(err)
		}
		got[b.Seq] = b.Images[0].Data
	}
	for i, want := range sections {
		if !bytes.Equal(got[uint32(i+2)], want) {
			t.Fatalf("frame %d: %d bytes decoded, want its %d-byte section intact", i+2, len(got[uint32(i+2)]), len(want))
		}
	}
}
