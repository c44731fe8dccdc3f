package area_test

import (
	"bytes"
	"testing"

	"bess/internal/area"
	"bess/internal/fault"
	"bess/internal/page"
)

// TestCrashTruncatedImage: an area image cut short — the tail pages of an
// extent never reached disk — must still load (header and extent maps live
// at the front), serve the intact pages, and fail page reads into the
// missing region with an error rather than a panic or silent zeros.
func TestCrashTruncatedImage(t *testing.T) {
	st := fault.NewStore(fault.NewInjector(1))
	a, err := area.Create(st.Area(), 3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	p1, _, err := a.AllocSegment(1)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := a.AllocSegment(1)
	if err != nil {
		t.Fatal(err)
	}
	if p2 < p1 {
		p1, p2 = p2, p1
	}
	intact := bytes.Repeat([]byte{0x5A}, page.Size)
	if err := a.WriteUnlogged(p1, intact); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteUnlogged(p2, bytes.Repeat([]byte{0x77}, page.Size)); err != nil {
		t.Fatal(err)
	}
	if err := st.Area().Sync(); err != nil {
		t.Fatal(err)
	}

	// Cut the durable image right before the higher page: everything from
	// p2 on is gone, as if the extent's tail never hit the platter.
	img := st.CrashImage()
	img = img[:int64(p2)*page.Size]

	st2 := fault.NewStoreFrom(fault.NewInjector(1), img)
	a2, err := area.Load(st2.Area(), true)
	if err != nil {
		t.Fatalf("loading truncated image: %v", err)
	}
	defer a2.Close()

	buf := make([]byte, page.Size)
	if err := a2.ReadPage(p1, buf); err != nil {
		t.Fatalf("reading intact page: %v", err)
	}
	if !bytes.Equal(buf, intact) {
		t.Fatal("intact page content changed")
	}
	if err := a2.ReadPage(p2, buf); err == nil {
		t.Fatal("reading a page beyond the truncated image succeeded")
	}
}

// TestCrashLostUnsyncedPageWrite: a page write that was never synced simply
// does not exist after the crash; the page reads back as its last durable
// content.
func TestCrashLostUnsyncedPageWrite(t *testing.T) {
	st := fault.NewStore(fault.NewInjector(2))
	a, err := area.Create(st.Area(), 4, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := a.AllocSegment(1)
	if err != nil {
		t.Fatal(err)
	}
	durable := bytes.Repeat([]byte{0x01}, page.Size)
	if err := a.WriteUnlogged(p, durable); err != nil {
		t.Fatal(err)
	}
	if err := st.Area().Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteUnlogged(p, bytes.Repeat([]byte{0x02}, page.Size)); err != nil {
		t.Fatal(err)
	}
	// No sync: the 0x02 write dies with the machine.

	st2 := fault.NewStoreFrom(fault.NewInjector(2), st.CrashImage())
	a2, err := area.Load(st2.Area(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	buf := make([]byte, page.Size)
	if err := a2.ReadPage(p, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, durable) {
		t.Fatal("page does not read back as its last synced content")
	}
}
