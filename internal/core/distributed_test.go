package core

import (
	"encoding/binary"
	"testing"

	"bess/internal/client"
	"bess/internal/rpc"
	"bess/internal/server"
)

var acctDesc = TypeDesc{Name: "Account", Size: 8}

func encU64(v *uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, *v)
	return b
}

func decU64(b []byte) *uint64 {
	v := binary.BigEndian.Uint64(b)
	return &v
}

// tcpServer starts an in-memory server behind a real TCP listener.
func tcpServer(t *testing.T, host uint16) (*server.Server, string) {
	t.Helper()
	srv := server.NewMem(host)
	t.Cleanup(func() { srv.Close() })
	l, err := rpc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			p, err := l.Accept()
			if err != nil {
				return
			}
			server.ServePeer(srv, p)
		}
	}()
	return srv, l.Addr()
}

func dialDB(t *testing.T, addr, dbName string) *Database {
	t.Helper()
	p, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDatabase(client.NewRemote(p), "tcp-app", dbName, true)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestTCPLifecycle(t *testing.T) {
	_, addr := tcpServer(t, 1)
	db := dialDB(t, addr, "tcpdb")
	ty, err := Register(db, acctDesc, encU64, decU64)
	if err != nil {
		t.Fatal(err)
	}
	f, err := db.CreateFile("accts")
	if err != nil {
		t.Fatal(err)
	}
	db.Begin()
	v := uint64(77)
	r, err := ty.New(f, &v)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetRoot("acct", r); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}

	// A second TCP connection reads it back.
	db2 := dialDB(t, addr, "tcpdb")
	db2.Begin()
	obj, err := db2.Root("acct")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := obj.Bytes()
	if binary.BigEndian.Uint64(b) != 77 {
		t.Fatalf("value = %d", binary.BigEndian.Uint64(b))
	}
	db2.Commit()
}

// transfer moves amount between roots on two databases with 2PC.
func transfer(t *testing.T, db1, db2 *Database, amount uint64, decide bool) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db1.Begin())
	must(db2.Begin())
	o1, err := db1.Root("acct")
	must(err)
	o2, err := db2.Root("acct")
	must(err)
	b1, _ := o1.Bytes()
	b2, _ := o2.Bytes()
	e := binary.BigEndian.Uint64(b1) - amount
	w := binary.BigEndian.Uint64(b2) + amount
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, e)
	must(o1.Write(0, buf))
	binary.BigEndian.PutUint64(buf, w)
	must(o2.Write(0, buf))
	must(db1.Session().PrepareCommit())
	must(db2.Session().PrepareCommit())
	must(db1.Session().FinishCommit(decide))
	must(db2.Session().FinishCommit(decide))
}

func readAcct(t *testing.T, db *Database) uint64 {
	t.Helper()
	db.Begin()
	obj, err := db.Root("acct")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := obj.Bytes()
	db.Commit()
	return binary.BigEndian.Uint64(b)
}

func TestTwoPCAcrossTCPServers(t *testing.T) {
	_, addr1 := tcpServer(t, 1)
	_, addr2 := tcpServer(t, 2)
	db1 := dialDB(t, addr1, "east")
	db2 := dialDB(t, addr2, "west")
	t1, _ := Register(db1, acctDesc, encU64, decU64)
	t2, _ := Register(db2, acctDesc, encU64, decU64)
	f1, _ := db1.CreateFile("a")
	f2, _ := db2.CreateFile("a")
	seed := func(db *Database, ty *Type[uint64], f *File, v uint64) {
		db.Begin()
		r, err := ty.New(f, &v)
		if err != nil {
			t.Fatal(err)
		}
		db.SetRoot("acct", r)
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	seed(db1, t1, f1, 100)
	seed(db2, t2, f2, 0)

	// Committed transfer.
	transfer(t, db1, db2, 30, true)
	if e, w := readAcct(t, db1), readAcct(t, db2); e != 70 || w != 30 {
		t.Fatalf("after commit: %d/%d", e, w)
	}
	// Aborted transfer: balances unchanged.
	transfer(t, db1, db2, 30, false)
	if e, w := readAcct(t, db1), readAcct(t, db2); e != 70 || w != 30 {
		t.Fatalf("after abort: %d/%d", e, w)
	}
}

// TestInDoubtBranchSurvivesRestart prepares a branch on a file-backed
// server, crashes it, and completes the branch after restart — the 2PC
// durability contract.
func TestInDoubtBranchSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDatabase(srv, "app", "d", true)
	if err != nil {
		t.Fatal(err)
	}
	ty, _ := Register(db, acctDesc, encU64, decU64)
	f, _ := db.CreateFile("a")
	db.Begin()
	v := uint64(5)
	r, _ := ty.New(f, &v)
	db.SetRoot("acct", r)
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}

	// Prepare an update but never decide.
	db.Begin()
	obj, _ := db.Root("acct")
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, 500)
	if err := obj.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := db.Session().PrepareCommit(); err != nil {
		t.Fatal(err)
	}
	gid, _ := db.Session().TxID()
	if err := srv.Close(); err != nil { // crash with the branch in doubt
		t.Fatal(err)
	}

	srv2, err := server.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	// The coordinator's decision arrives after restart: commit.
	if err := srv2.Decide(gid, true); err != nil {
		t.Fatalf("decide after restart: %v", err)
	}
	db2, err := OpenDatabase(srv2, "app", "d", false)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAcct(t, db2); got != 500 {
		t.Fatalf("in-doubt commit lost: %d", got)
	}
}

// TestInDoubtAbortAfterRestart is the presumed-abort path.
func TestInDoubtAbortAfterRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := OpenDatabase(srv, "app", "d", true)
	ty, _ := Register(db, acctDesc, encU64, decU64)
	f, _ := db.CreateFile("a")
	db.Begin()
	v := uint64(5)
	r, _ := ty.New(f, &v)
	db.SetRoot("acct", r)
	db.Commit()

	db.Begin()
	obj, _ := db.Root("acct")
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, 500)
	obj.Write(0, buf)
	if err := db.Session().PrepareCommit(); err != nil {
		t.Fatal(err)
	}
	gid, _ := db.Session().TxID()
	srv.Close()

	srv2, err := server.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := srv2.Decide(gid, false); err != nil {
		t.Fatalf("abort after restart: %v", err)
	}
	db2, _ := OpenDatabase(srv2, "app", "d", false)
	if got := readAcct(t, db2); got != 5 {
		t.Fatalf("aborted branch visible: %d", got)
	}
}

// TestFileStreamScanOverTCP: over an RPC connection, File.Scan streams and visits
// every live object of a file that spans several segments, each once, from a
// cold cache.
func TestFileStreamScanOverTCP(t *testing.T) {
	_, addr := tcpServer(t, 1)
	db := dialDB(t, addr, "scandb")
	ty, err := Register(db, acctDesc, encU64, decU64)
	if err != nil {
		t.Fatal(err)
	}
	f, err := db.CreateFile("accts", WithGeometry(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	db.Begin()
	for i := uint64(1); i <= n; i++ {
		if _, err := ty.New(f, &i); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}

	cold := dialDB(t, addr, "scandb")
	cf, err := cold.OpenFile("accts")
	if err != nil {
		t.Fatal(err)
	}
	if segs, err := cf.segments(); err != nil || len(segs) < 2 {
		t.Fatalf("the file spans %d segments (%v), want several", len(segs), err)
	}
	cold.Begin()
	defer cold.Commit()
	seen, visits := make(map[uint64]bool), 0
	err = cf.Scan(func(o *Object) error {
		b, err := o.Bytes()
		seen[*decU64(b)] = true
		visits++
		return err
	})
	if err != nil || len(seen) != n || visits != n {
		t.Fatalf("Scan made %d visits to %d distinct objects of %d (%v)", visits, len(seen), n, err)
	}
}
