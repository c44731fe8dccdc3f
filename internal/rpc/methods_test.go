package rpc

import (
	"net"
	"testing"

	"bess/internal/goleak"
	"bess/internal/lockcheck"
	"bess/internal/proto"
	"bess/internal/proto/prototest"
)

// TestEveryMethodHasArgsAndReply ties the id table to the message registry:
// a method cannot be given an id without a registered args and reply layout
// (prototest.Methods, which TestMessages in internal/proto holds to the
// codec contract), and the registry cannot name a method the table lacks.
// Only the one-way stream methods have no reply.
func TestEveryMethodHasArgsAndReply(t *testing.T) {
	streams := map[string]bool{"ScanData": true, "ScanCtl": true}
	reg := make(map[string]prototest.Method)
	for _, m := range prototest.Methods {
		reg[m.Name] = m
		if _, ok := methodIDs[m.Name]; !ok {
			t.Errorf("registry names %q, which has no method id", m.Name)
		}
	}
	for id, name := range methodNames {
		if name == "" {
			continue
		}
		switch m, ok := reg[name]; {
		case !ok:
			t.Errorf("method %d %q has no registered messages", id, name)
		case m.Args == nil:
			t.Errorf("method %d %q has no args message", id, name)
		case (m.Reply == nil) != streams[name]:
			t.Errorf("method %d %q: reply registered = %v, one-way stream = %v", id, name, m.Reply != nil, streams[name])
		}
	}
}

// TestColdCallAllocBudget bounds a whole NewTx-shaped round trip — encode,
// frame, dispatch, decode, and back — over net.Pipe. With a gob body per
// direction the same call cost 335 allocations.
func TestColdCallAllocBudget(t *testing.T) {
	if goleak.Enabled || lockcheck.Enabled {
		t.Skip("the runtime checkers allocate per spawn and per lock acquisition")
	}
	c1, c2 := net.Pipe()
	a, b := NewPeer(c1), NewPeer(c2)
	defer a.Close()
	defer b.Close()
	b.Handle("NewTx", Typed(func(*proto.ClientArgs) (*proto.NewTxReply, error) {
		return &proto.NewTxReply{Tx: 42}, nil
	}))
	var rep proto.NewTxReply
	n := testing.AllocsPerRun(200, func() {
		if err := a.Call("NewTx", &proto.ClientArgs{}, &rep); err != nil || rep.Tx != 42 {
			t.Fatalf("tx = %d, err = %v", rep.Tx, err)
		}
	})
	if n > 20 {
		t.Fatalf("NewTx round trip: %v allocs, budget is 20", n)
	}
	t.Logf("NewTx round trip: %v allocs", n)
}
