package names

import (
	"testing"

	"bess/internal/oid"
)

func o(n uint64) oid.OID { return oid.OID{Host: 1, DB: 1, Offset: n, Unique: 0} }

func TestBindLookup(t *testing.T) {
	d := New()
	if err := d.Bind("root", o(1)); err != nil {
		t.Fatal(err)
	}
	got, err := d.Lookup("root")
	if err != nil || got != o(1) {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	if _, err := d.Lookup("missing"); err != ErrNotFound {
		t.Fatalf("missing: %v", err)
	}
	name, ok := d.NameOf(o(1))
	if !ok || name != "root" {
		t.Fatalf("NameOf = %q, %v", name, ok)
	}
	if _, ok := d.NameOf(o(9)); ok {
		t.Fatal("phantom NameOf")
	}
}

func TestBindConstraints(t *testing.T) {
	d := New()
	d.Bind("a", o(1))
	if err := d.Bind("a", o(2)); err != ErrExists {
		t.Fatalf("dup name: %v", err)
	}
	if err := d.Bind("b", o(1)); err != ErrExists {
		t.Fatalf("dup oid: %v", err)
	}
	if err := d.Bind("", o(3)); err != ErrBadName {
		t.Fatalf("empty name: %v", err)
	}
	if err := d.Bind("n", oid.Nil); err != ErrNilOID {
		t.Fatalf("nil oid: %v", err)
	}
}

func TestUnbind(t *testing.T) {
	d := New()
	d.Bind("a", o(1))
	if err := d.Unbind("a"); err != nil {
		t.Fatal(err)
	}
	if err := d.Unbind("a"); err != ErrNotFound {
		t.Fatalf("double unbind: %v", err)
	}
	// Both directions cleared; rebinding works.
	if err := d.Bind("a2", o(1)); err != nil {
		t.Fatal(err)
	}
}

func TestReferentialIntegrity(t *testing.T) {
	d := New()
	d.Bind("doomed", o(5))
	if !d.ObjectRemoved(o(5)) {
		t.Fatal("removal not reported")
	}
	if _, err := d.Lookup("doomed"); err != ErrNotFound {
		t.Fatal("name survives object removal")
	}
	if d.ObjectRemoved(o(5)) {
		t.Fatal("second removal reported")
	}
}

func TestNamesSorted(t *testing.T) {
	d := New()
	d.Bind("zebra", o(1))
	d.Bind("apple", o(2))
	d.Bind("mango", o(3))
	ns := d.Names()
	if len(ns) != 3 || ns[0] != "apple" || ns[2] != "zebra" {
		t.Fatalf("names = %v", ns)
	}
	if d.Len() != 3 {
		t.Fatalf("len = %d", d.Len())
	}
}
