package rpc

import (
	"bytes"
	"testing"
	"time"

	"bess/internal/lockcheck"
	"bess/internal/proto"
)

// TestWhichBodiesAreLent: a request frame of the Commit method whose body is
// at least proto.MinRef bytes is read into memory its peer lends, and no
// other frame is: not a Prepare, whose branch is decided later, nor a small
// commit, a reply, an error, a named frame or a stream frame.
func TestWhichBodiesAreLent(t *testing.T) {
	commit, prepare := proto.MethodCommit.ID, proto.MethodPrepare.ID
	for _, tc := range []struct {
		name   string
		flags  uint8
		method uint16
		plen   int
		want   bool
	}{
		{"large commit", 0, commit, proto.MinRef, true},
		{"large commit, checksummed", flagCRC, commit, 8 << 20, true},
		{"small commit", 0, commit, proto.MinRef - 1, false},
		{"large prepare", 0, prepare, proto.MinRef, false},
		{"reply", flagReply, commit, proto.MinRef, false},
		{"error reply", flagReply | flagError, commit, proto.MinRef, false},
		{"named", flagNamed, 0, proto.MinRef, false},
		{"stream", flagStream, commit, proto.MinRef, false},
	} {
		if got := lends(&frame{flags: tc.flags, method: tc.method}, tc.plen); got != tc.want {
			t.Errorf("%s: lent %v, want %v", tc.name, got, tc.want)
		}
	}
}

// awaitIdle returns p's counters once it holds n idle bodies, or fails the
// test after a while: a body goes back after its dispatch, which the reply
// does not wait for.
func awaitIdle(t *testing.T, p *Peer, n int) Stats {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := p.WireStats(); st.Idle == n {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("the peer holds %d idle bodies, want %d", p.WireStats().Idle, n)
		}
	}
}

// TestCommitBodyIsLentAndTakenBack: a large commit's body goes back to its
// peer once the dispatch — its then included — has ended, the next commit is
// read into the same memory, and a closed peer drops what it holds. An
// invariants build poisons a body as it goes back, so a view kept past the
// dispatch reads garbage.
func TestCommitBodyIsLentAndTakenBack(t *testing.T) {
	c, s := Pipe()
	defer c.Close()
	defer s.Close()
	views := make(chan []byte, 1)
	s.Serve(TypedThen(proto.MethodCommit, func(a *proto.CommitArgs) (*proto.Empty, func(), error) {
		data, sent := a.Segs[0].Data, a.Segs[0].Data[0]
		return &proto.Empty{}, func() {
			if bytes.Count(data, []byte{sent}) != len(data) {
				t.Error("the body changed before its then ended")
			}
			views <- data
		}, nil
	}))
	commit := func(b byte) []byte {
		t.Helper()
		args := &proto.CommitArgs{Segs: []proto.SegImage{{Data: bytes.Repeat([]byte{b}, proto.MinRef)}}}
		if err := Call(c, proto.MethodCommit, args, &proto.Empty{}); err != nil {
			t.Fatal(err)
		}
		return <-views
	}

	a := commit(0xA1)
	if st := awaitIdle(t, s, 1); st.Reused != 0 {
		t.Fatalf("the first commit reused a body: %+v", st)
	}
	if lockcheck.Enabled && a[0] != poison {
		t.Fatalf("a body given back holds %#x, want the poison %#x", a[0], poison)
	}
	b := commit(0xB1)
	if &a[0] != &b[0] {
		t.Fatal("the second commit was not read into the body the first gave back")
	}
	if st := awaitIdle(t, s, 1); st.Reused != 1 {
		t.Fatalf("after two commits: %+v, want one reuse", st)
	}
	if st := c.WireStats(); st.Idle != 0 || st.Reused != 0 {
		t.Fatalf("the calling peer lent a reply's body: %+v", st)
	}
	s.Close()
	if st := s.WireStats(); st.Idle != 0 {
		t.Fatalf("a closed peer holds %d idle bodies", st.Idle)
	}
}

// TestIdleBodyIsBounded: a peer keeps one idle body, the larger of the two
// it could keep, and none past maxIdle bytes, so a connection that once read
// a huge commit does not pin its body until it closes.
func TestIdleBodyIsBounded(t *testing.T) {
	c, s := Pipe()
	defer c.Close()
	defer s.Close()
	small, large := make([]byte, proto.MinRef), make([]byte, 2*proto.MinRef)
	s.giveBack(small)
	s.giveBack(large)
	s.giveBack(make([]byte, proto.MinRef))
	if st := s.WireStats(); st.Idle != 1 || cap(s.idle) != cap(large) {
		t.Fatalf("after three bodies: %+v, idle of %d bytes, want the %d-byte one", st, cap(s.idle), cap(large))
	}
	if b := s.lend(3 * proto.MinRef); &b[0] == &large[0] || s.WireStats().Reused != 0 {
		t.Fatal("a body too small for the commit was lent")
	}
	if b := s.lend(proto.MinRef); &b[0] != &large[0] || s.WireStats() != (Stats{Reused: 1}) {
		t.Fatalf("the idle body was not lent: %+v", s.WireStats())
	}
	s.giveBack(make([]byte, maxIdle+1))
	if st := s.WireStats(); st.Idle != 0 {
		t.Fatalf("a peer kept a body of %d bytes, past maxIdle", maxIdle+1)
	}
}
