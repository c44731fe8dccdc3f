// Sharedmem: the Figure 3/4 walkthrough — a node server establishes a
// shared cache; several application "processes" attach in shared-memory
// mode and operate on cached pages in place, with shared-space pointers
// (SVMA offsets) valid in every process, two-level clock replacement, and
// crash cleanup.
package main

import (
	"bytes"
	"fmt"
	"log"

	"bess/internal/client"
	"bess/internal/nodeserver"
	"bess/internal/page"
	"bess/internal/rpc"
	"bess/internal/server"
	"bess/internal/shm"
)

func main() {
	// A BeSS server owning the storage, and a node server connected to it
	// over RPC (node 2 of Figure 2 would link them directly).
	srv := server.NewMem(1)
	cEnd, sEnd := rpc.Pipe()
	server.ServePeer(srv, sEnd)
	node, err := nodeserver.New(client.NewRemote(cEnd), "node-1", 4, 32)
	if err != nil {
		log.Fatal(err)
	}

	// Three disk pages A, B, C: a shared-cache page is the data page of a
	// segment, named by the segment's key. A seeding session creates the
	// three segments in one transaction, and a seeding process fills them in
	// place; FlushDirty commits each page back.
	seed, err := client.Open(node, "seeder", "db", true)
	if err != nil {
		log.Fatal(err)
	}
	if err := seed.Begin(); err != nil {
		log.Fatal(err)
	}
	pages := map[byte]page.ID{}
	for _, tag := range []byte{'A', 'B', 'C'} {
		k, err := seed.CreateSegment(1, 1, 1, -1)
		if err != nil {
			log.Fatal(err)
		}
		pages[tag] = nodeserver.PageOf(k)
	}
	if err := seed.Commit(); err != nil {
		log.Fatal(err)
	}
	p0, err := node.AttachShared()
	if err != nil {
		log.Fatal(err)
	}
	for _, tag := range []byte{'A', 'B', 'C'} {
		r, err := p0.Access(pages[tag])
		if err == nil {
			err = p0.WithLatch(r, func() error { return p0.Write(r, bytes.Repeat([]byte{tag}, page.Size)) })
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := node.SharedCache().FlushDirty(); err != nil {
		log.Fatal(err)
	}
	p0.Detach()

	// Two application processes attach to the shared cache.
	p1, err := node.AttachShared()
	if err != nil {
		log.Fatal(err)
	}
	p2, err := node.AttachShared()
	if err != nil {
		log.Fatal(err)
	}

	// Figure 4(a): P1 maps A, P2 maps B — same SVMA frames for everyone.
	refA, err := p1.Access(pages['A'])
	if err != nil {
		log.Fatal(err)
	}
	refB, err := p2.Access(pages['B'])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P1 sees page A at SVMA frame %d; P2 sees page B at frame %d\n",
		refA.FrameOf(), refB.FrameOf())

	// In-place shared write: P1 updates A under a latch; P2 reads it
	// through its own mapping of the same cache slot — no copying, no IPC.
	if err := p1.WithLatch(refA, func() error {
		return p1.Write(refA, []byte("updated-in-place"))
	}); err != nil {
		log.Fatal(err)
	}
	refA2, _ := p2.Access(pages['A'])
	buf := make([]byte, 16)
	if err := p2.Read(refA2, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P2 reads P1's in-place update: %q (same frame: %v)\n", buf, refA2 == refA)

	// Figure 4(b): P2 touches C; the cache must replace a page, driven by
	// the two-level clock. P1 then sees C at the frame the SMT assigned.
	refC, err := p2.Access(pages['C'])
	if err != nil {
		log.Fatal(err)
	}
	refC1, err := p1.Access(pages['C'])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("page C at SVMA frame %d for both processes: %v\n", refC.FrameOf(), refC == refC1)

	// A shared-space pointer stored inside a page is valid for everyone.
	ptr := refC + 100
	var enc [8]byte
	for i := 0; i < 8; i++ {
		enc[i] = byte(uint64(ptr) >> (56 - 8*i))
	}
	p1.Write(refA2, enc[:])
	var dec [8]byte
	p2.Read(refA2, dec[:])
	var raw uint64
	for _, b := range dec {
		raw = raw<<8 | uint64(b)
	}
	fmt.Printf("P2 follows the shared pointer stored by P1: frame %d offset %d\n",
		shm.Ref(raw).FrameOf(), shm.Ref(raw).OffsetOf())

	// Crash cleanup: P1 dies holding nothing is fine — but even holding a
	// latch, the system recovers its resources (as in Rdb/VMS).
	p1.Crash()
	if err := p2.WithLatch(refC, func() error { return nil }); err != nil {
		log.Fatal(err)
	}
	fmt.Println("P1 crashed; its slots and latches were reclaimed; P2 continues")

	// Write-back of dirty pages to the server's disk: each page one
	// committed transaction, durable when FlushDirty returns.
	if err := node.SharedCache().FlushDirty(); err != nil {
		log.Fatal(err)
	}
	st := node.SharedCache().Pool().Snapshot()
	fmt.Printf("cache: %d hits, %d misses, %d evictions, %d clock steps\n",
		st.Hits, st.Misses, st.Evictions, st.SweepSteps)
	p2.Detach()
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
}
