// Quickstart: open a database on an embedded BeSS server (the "open
// server" configuration), define a type, build a small object graph with
// direct references, name a root, commit, and navigate it back.
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"

	"bess/internal/core"
	"bess/internal/server"
)

// Person is the paper's running example: a name and a spouse reference.
type Person struct {
	Name   string
	Spouse core.Ref
}

const personSize = 32 // spouse ref (8) + name (24)

func encode(p *Person) []byte {
	b := make([]byte, personSize)
	binary.BigEndian.PutUint64(b[0:8], uint64(p.Spouse.Addr()))
	copy(b[8:], p.Name)
	return b
}

func decode(b []byte) *Person {
	return &Person{Name: string(bytes.TrimRight(b[8:32], "\x00"))}
}

func main() {
	// A file-backed server would be server.Open(dir, host); memory keeps
	// the example self-contained.
	srv := server.NewMem(1)

	db, err := core.OpenDatabase(srv, "quickstart", "people", true)
	if err != nil {
		log.Fatal(err)
	}
	personType, err := core.Register(db, core.TypeDesc{
		Name: "Person", Size: personSize, RefOffsets: []int{0},
	}, encode, decode)
	if err != nil {
		log.Fatal(err)
	}
	people, err := db.CreateFile("people")
	if err != nil {
		log.Fatal(err)
	}

	// Build: alice <-> bob, rooted at "alice".
	if err := db.Begin(); err != nil {
		log.Fatal(err)
	}
	alice, err := personType.New(people, &Person{Name: "Alice"})
	if err != nil {
		log.Fatal(err)
	}
	bob, err := personType.New(people, &Person{Name: "Bob"})
	if err != nil {
		log.Fatal(err)
	}
	aObj, _ := db.Deref(alice)
	if err := aObj.SetRef(0, bob); err != nil {
		log.Fatal(err)
	}
	bObj, _ := db.Deref(bob)
	if err := bObj.SetRef(0, alice); err != nil {
		log.Fatal(err)
	}
	if err := db.SetRoot("alice", alice); err != nil {
		log.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("committed: alice <-> bob")

	// Navigate: p->spouse->name, exactly the §2.5 access pattern.
	if err := db.Begin(); err != nil {
		log.Fatal(err)
	}
	root, err := db.Root("alice")
	if err != nil {
		log.Fatal(err)
	}
	spouseRef, err := root.Ref(0)
	if err != nil {
		log.Fatal(err)
	}
	spouse, err := personType.Get(db, spouseRef)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice's spouse: %s\n", spouse.Name)

	// Scan the file with the cursor mechanism.
	names := []string{}
	if err := people.Scan(func(o *core.Object) error {
		b, err := o.Bytes()
		if err != nil {
			return err
		}
		names = append(names, decode(b).Name)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("file scan: %v\n", names)
	if err := db.Commit(); err != nil {
		log.Fatal(err)
	}

	// The wave statistics show the lazy mapping at work.
	st := db.Session().Mapper().Stats()
	fmt.Printf("waves: %d reservations, %d slotted loads, %d data loads, %d refs swizzled\n",
		st.Wave1Reservations, st.Wave2SlottedLoads, st.Wave3DataLoads, st.RefsSwizzled)
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
}
