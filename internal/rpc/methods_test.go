package rpc

import (
	"net"
	"testing"

	"bess/internal/goleak"
	"bess/internal/lockcheck"
	"bess/internal/proto"
	"bess/internal/proto/prototest"
)

// TestEveryMethodHasArgsAndReply: every entry of the method table has its
// samples in prototest.Methods, which TestMessages in internal/proto holds to
// the codec contract, and its own name (a handler is found by it). That a
// sample, a handler or a call has its method's types is the compiler's to
// check.
func TestEveryMethodHasArgsAndReply(t *testing.T) {
	sampled := make(map[proto.Desc]bool)
	for _, m := range prototest.Methods {
		sampled[m.Desc] = true
	}
	named := make(map[string]uint16)
	for _, d := range proto.Methods {
		if d.ID == 0 {
			continue
		}
		if !sampled[d] {
			t.Errorf("method %d %q has no sample in prototest.Methods", d.ID, d.Name)
		}
		if id, dup := named[d.Name]; dup {
			t.Errorf("methods %d and %d are both named %q", id, d.ID, d.Name)
		}
		named[d.Name] = d.ID
	}
}

// TestColdCallAllocBudget bounds a whole NewTx-shaped round trip — encode,
// frame, dispatch, decode, and back — over net.Pipe, at 10 allocations. It
// measures 8: a frame's header and CRC trailer are read where the reader
// buffers them, where each used to cost one more. Under -race it measures 9:
// the race runtime's sync.Pool drops a quarter of the codec cursors it is
// given back. With a gob body per direction the same call cost 335, and with
// each dispatch's frame captured in a closure 11.
func TestColdCallAllocBudget(t *testing.T) {
	if goleak.Enabled || lockcheck.Enabled {
		t.Skip("the runtime checkers allocate per spawn and per lock acquisition")
	}
	c1, c2 := net.Pipe()
	a, b := NewPeer(c1), NewPeer(c2)
	defer a.Close()
	defer b.Close()
	b.Serve(Typed(proto.MethodNewTx, func(*proto.ClientArgs) (*proto.NewTxReply, error) {
		return &proto.NewTxReply{Tx: 42}, nil
	}))
	var rep proto.NewTxReply
	n := testing.AllocsPerRun(200, func() {
		if err := Call(a, proto.MethodNewTx, &proto.ClientArgs{}, &rep); err != nil || rep.Tx != 42 {
			t.Fatalf("tx = %d, err = %v", rep.Tx, err)
		}
	})
	if n > 10 {
		t.Fatalf("NewTx round trip: %v allocs, budget is 10", n)
	}
	t.Logf("NewTx round trip: %v allocs", n)
}
