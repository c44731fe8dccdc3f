// Reorg: the federated-environment scenario of §2.1 — a database is
// reorganized on the fly (objects deleted, data segments compacted,
// resized, and relocated) while existing object references stay valid,
// because references name the immovable slots, not the data locations.
package main

import (
	"fmt"
	"log"

	"bess/internal/core"
	"bess/internal/server"
)

func main() {
	srv := server.NewMem(1)
	db, err := core.OpenDatabase(srv, "federation", "warehouse", true)
	if err != nil {
		log.Fatal(err)
	}
	blob, err := db.RegisterType(core.TypeDesc{Name: "Record", Size: 0})
	if err != nil {
		log.Fatal(err)
	}
	f, err := db.CreateFile("records", core.WithGeometry(1, 4))
	if err != nil {
		log.Fatal(err)
	}

	// Fill a segment, remembering every reference — these model references
	// held by *other* systems in the federation, which we cannot rewrite.
	db.Begin()
	var refs []core.Ref
	for i := 0; i < 60; i++ {
		body := make([]byte, 200)
		for j := range body {
			body[j] = byte(i)
		}
		r, err := f.New(blob, body)
		if err != nil {
			log.Fatal(err)
		}
		refs = append(refs, r)
	}
	if err := db.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created %d records; external references handed out\n", len(refs))

	// Reorganize: delete every other record (creating garbage), then let
	// creation pressure compact and grow/relocate the data segment.
	db.Begin()
	for i := 0; i < len(refs); i += 2 {
		obj, err := db.Deref(refs[i])
		if err != nil {
			log.Fatal(err)
		}
		if err := obj.Delete(); err != nil {
			log.Fatal(err)
		}
	}
	// New, bigger records force compaction and data-segment growth; the
	// server re-homes the grown data segment at commit (relocation).
	for i := 0; i < 30; i++ {
		if _, err := f.New(blob, make([]byte, 900)); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("reorganized: deletions, compaction, growth, relocation at commit")

	// Every surviving external reference still dereferences correctly —
	// through a *fresh* session, proving the on-disk form moved without
	// breaking references.
	db2, err := core.OpenDatabase(srv, "partner-system", "warehouse", false)
	if err != nil {
		log.Fatal(err)
	}
	db2.Begin()
	ok := 0
	for i := 1; i < len(refs); i += 2 {
		g := db.GlobalRefOf(refs[i]) // the position-independent form
		obj, err := db2.DerefGlobal(g)
		if err != nil {
			log.Fatalf("reference %d broken by reorganization: %v", i, err)
		}
		b, err := obj.Bytes()
		if err != nil {
			log.Fatal(err)
		}
		if len(b) != 200 || b[0] != byte(i) {
			log.Fatalf("reference %d reads wrong bytes", i)
		}
		ok++
	}
	db2.Commit()
	fmt.Printf("all %d surviving references valid after reorganization\n", ok)

	st := srv.Snapshot()
	fmt.Printf("server: %d commits, %d pages written\n", st.Commits, st.PagesWritten)
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
}
