// Distributed: the Figure 2 topology over real TCP — two BeSS servers, a
// client workstation talking to both, and a two-phase commit spanning
// databases on different servers.
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"

	"bess/internal/client"
	"bess/internal/core"
	"bess/internal/goleak"
	"bess/internal/rpc"
	"bess/internal/server"
)

// startServer serves a fresh in-memory server on loopback TCP; its accept
// loop joins accepting and ends when the listener is closed.
func startServer(host uint16, accepting *goleak.Group) (*server.Server, *rpc.Listener) {
	srv := server.NewMem(host)
	l, err := rpc.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	accepting.Go("distributed.accept", func(<-chan struct{}) {
		for {
			p, err := l.Accept()
			if err != nil {
				return
			}
			server.ServePeer(srv, p)
		}
	})
	return srv, l
}

func main() {
	var accepting goleak.Group
	srv1, l1 := startServer(1, &accepting)
	srv2, l2 := startServer(2, &accepting)
	defer func() {
		if err := errors.Join(srv1.Close(), srv2.Close()); err != nil {
			log.Fatal(err)
		}
	}()
	defer accepting.Stop()
	defer l1.Close()
	defer l2.Close()
	addr1, addr2 := l1.Addr(), l2.Addr()
	fmt.Printf("server 1 at %s, server 2 at %s\n", addr1, addr2)

	// The application on node 1 of Figure 2: connections to both servers.
	peer1, err := rpc.Dial(addr1)
	if err != nil {
		log.Fatal(err)
	}
	peer2, err := rpc.Dial(addr2)
	if err != nil {
		log.Fatal(err)
	}
	db1, err := core.OpenDatabase(client.NewRemote(peer1), "app", "accounts-east", true)
	if err != nil {
		log.Fatal(err)
	}
	db2, err := core.OpenDatabase(client.NewRemote(peer2), "app", "accounts-west", true)
	if err != nil {
		log.Fatal(err)
	}

	acct := core.TypeDesc{Name: "Account", Size: 8}
	enc := func(v *uint64) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, *v)
		return b
	}
	dec := func(b []byte) *uint64 {
		v := binary.BigEndian.Uint64(b)
		return &v
	}
	t1, err := core.Register(db1, acct, enc, dec)
	if err != nil {
		log.Fatal(err)
	}
	t2, err := core.Register(db2, acct, enc, dec)
	if err != nil {
		log.Fatal(err)
	}
	f1, _ := db1.CreateFile("accounts")
	f2, _ := db2.CreateFile("accounts")

	// Seed: 100 east, 0 west.
	east, west := uint64(100), uint64(0)
	db1.Begin()
	r1, err := t1.New(f1, &east)
	if err != nil {
		log.Fatal(err)
	}
	db1.SetRoot("acct", r1)
	if err := db1.Commit(); err != nil {
		log.Fatal(err)
	}
	db2.Begin()
	r2, err := t2.New(f2, &west)
	if err != nil {
		log.Fatal(err)
	}
	db2.SetRoot("acct", r2)
	if err := db2.Commit(); err != nil {
		log.Fatal(err)
	}

	// Distributed transfer: move 40 east→west atomically with 2PC. The
	// client is the coordinator (the first server a pure client connects
	// to would normally coordinate; the protocol is identical).
	db1.Begin()
	db2.Begin()
	o1, _ := db1.Root("acct")
	o2, _ := db2.Root("acct")
	v1, _ := o1.Bytes()
	v2, _ := o2.Bytes()
	e, w := binary.BigEndian.Uint64(v1), binary.BigEndian.Uint64(v2)
	e -= 40
	w += 40
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, e)
	if err := o1.Write(0, buf); err != nil {
		log.Fatal(err)
	}
	binary.BigEndian.PutUint64(buf, w)
	if err := o2.Write(0, buf); err != nil {
		log.Fatal(err)
	}

	// Phase 1: both branches prepare (forced prepare records).
	if err := db1.Session().PrepareCommit(); err != nil {
		log.Fatal("east vote:", err)
	}
	if err := db2.Session().PrepareCommit(); err != nil {
		log.Fatal("west vote:", err)
	}
	fmt.Println("2PC phase 1: both branches voted YES")
	// Phase 2: deliver the commit decision.
	if err := db1.Session().FinishCommit(true); err != nil {
		log.Fatal(err)
	}
	if err := db2.Session().FinishCommit(true); err != nil {
		log.Fatal(err)
	}
	fmt.Println("2PC phase 2: committed on both servers")

	// Verify through fresh transactions.
	db1.Begin()
	db2.Begin()
	o1, _ = db1.Root("acct")
	o2, _ = db2.Root("acct")
	b1, _ := o1.Bytes()
	b2, _ := o2.Bytes()
	fmt.Printf("balances: east=%d west=%d (sum preserved: %v)\n",
		binary.BigEndian.Uint64(b1), binary.BigEndian.Uint64(b2),
		binary.BigEndian.Uint64(b1)+binary.BigEndian.Uint64(b2) == 100)
	db1.Commit()
	db2.Commit()
}
