package page

import "testing"

func TestIDString(t *testing.T) {
	id := ID{Area: 3, Page: 17}
	if s := id.String(); s != "3:17" {
		t.Fatalf("String() = %q", s)
	}
}

func TestIDLess(t *testing.T) {
	a := ID{Area: 1, Page: 99}
	b := ID{Area: 2, Page: 0}
	c := ID{Area: 2, Page: 1}
	if !a.Less(b) || !b.Less(c) || b.Less(a) || a.Less(a) {
		t.Fatal("Less ordering wrong")
	}
}

func TestChecksumDiffers(t *testing.T) {
	a := []byte("hello world")
	b := []byte("hello worle")
	if Checksum(a) == Checksum(b) {
		t.Fatal("checksums collide on near inputs (unexpected for CRC32C)")
	}
	if Checksum(a) != Checksum([]byte("hello world")) {
		t.Fatal("checksum not deterministic")
	}
}

func TestGeometry(t *testing.T) {
	if Size&(Size-1) != 0 {
		t.Fatal("page size must be a power of two")
	}
	if PerExtent&(PerExtent-1) != 0 {
		t.Fatal("pages per extent must be a power of two")
	}
}
