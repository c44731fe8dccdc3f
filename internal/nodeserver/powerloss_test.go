package nodeserver

import (
	"bytes"
	"testing"

	"bess/internal/area"
	"bess/internal/client"
	"bess/internal/fault"
	"bess/internal/page"
	"bess/internal/server"
)

// media are a server's devices on simulated stores.
type media struct {
	inj   *fault.Injector
	log   *fault.Store
	areas map[uint32]*fault.Store
}

func newMedia() *media {
	inj := fault.NewInjector(0)
	return &media{inj: inj, log: fault.NewStore(inj), areas: make(map[uint32]*fault.Store)}
}

// open opens a server on the devices, running restart over what they hold.
func (m *media) open(t *testing.T) *server.Server {
	t.Helper()
	s, err := server.OpenMedia(server.Media{Log: m.log.WAL(), NewArea: func(id uint32) (area.Store, error) {
		if m.areas[id] == nil {
			m.areas[id] = fault.NewStore(m.inj)
		}
		return m.areas[id].Area(), nil
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// powerLoss returns devices holding what a power loss now leaves: what each
// store had synced.
func (m *media) powerLoss() *media {
	c := newMedia()
	c.log = fault.NewStoreFrom(c.inj, m.log.CrashImage())
	for id, st := range m.areas {
		c.areas[id] = fault.NewStoreFrom(c.inj, st.CrashImage())
	}
	return c
}

// TestFlushDirtySurvivesPowerLoss: the shared cache writes a page back as a
// committed transaction, so a page written in place by a shared-memory
// process is durable once FlushDirty returns, though no area was synced.
func TestFlushDirtySurvivesPowerLoss(t *testing.T) {
	m := newMedia()
	srv := m.open(t)
	ns, err := New(srv, "node", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := client.Open(ns, "seed", "db", true)
	if err != nil {
		t.Fatal(err)
	}
	areaID, start, _, err := ns.AllocRun(s.DB(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := ns.NewTx()
	if err := ns.WriteRun(s.Client(), tx, s.DB(), areaID, start, bytes.Repeat([]byte{'s'}, page.Size)); err != nil {
		t.Fatal(err)
	}
	if err := ns.Publish(s.Client(), tx, nil, nil, false); err != nil {
		t.Fatal(err)
	}

	p, err := ns.AttachShared()
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Access(page.ID{Area: page.AreaID(areaID), Page: page.No(start)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WithLatch(r, func() error { return p.Write(r, []byte("written in place")) }); err != nil {
		t.Fatal(err)
	}
	if err := ns.SharedCache().FlushDirty(); err != nil {
		t.Fatal(err)
	}

	after := m.powerLoss().open(t)
	defer after.Close()
	db, _, err := after.OpenDB("db", false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := after.ReadRun(db, areaID, start, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("written in place"), bytes.Repeat([]byte{'s'}, page.Size-16)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("after a power loss the page reads %q..., want %q...", got[:16], want[:16])
	}
}
