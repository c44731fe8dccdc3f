// Multimedia: the Prospector/Calico use case — large media objects with
// user-registered compression hooks, and very large objects edited with
// byte-range operations (insert/delete/append) instead of rewrites.
package main

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"log"

	"bess/internal/core"
	"bess/internal/hooks"
	"bess/internal/server"
)

func main() {
	srv := server.NewMem(1)
	db, err := core.OpenDatabase(srv, "prospector", "media", true)
	if err != nil {
		log.Fatal(err)
	}

	// §2.4: "compressing [very large objects] when they are stored on disk,
	// and uncompressing them when they are fetched" — the functions are
	// written by the user and registered with the session that stores them.
	db.Session().Hooks().Register(hooks.EvObjectFlush, func(i *hooks.Info) error {
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := w.Write(*i.Data); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		fmt.Printf("  hook: compressed %d -> %d bytes\n", len(*i.Data), buf.Len())
		*i.Data = buf.Bytes()
		return nil
	})
	db.Session().Hooks().Register(hooks.EvObjectFetch, func(i *hooks.Info) error {
		r := flate.NewReader(bytes.NewReader(*i.Data))
		out, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		*i.Data = out
		return nil
	})

	tracks, err := db.CreateFile("tracks")
	if err != nil {
		log.Fatal(err)
	}

	// A compressible 48KB "image" stored as a transparent large object.
	frame := bytes.Repeat([]byte("FRAMEDATA"), 48<<10/9)
	db.Begin()
	ref, err := tracks.NewLarge(0, frame)
	if err != nil {
		log.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		log.Fatal(err)
	}

	db.Begin()
	obj, err := db.Deref(ref)
	if err != nil {
		log.Fatal(err)
	}
	got, err := obj.Bytes()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fetched frame: %d bytes, intact=%v\n", len(got), bytes.Equal(got, frame))
	db.Commit()

	// A continuous-media track as a very large object: append "samples",
	// then splice a clip into the middle — only the touched segments move.
	// Every update is a change of the open transaction, written at its
	// commit.
	track, err := db.NewVLO(32 << 20)
	if err != nil {
		log.Fatal(err)
	}
	sample := make([]byte, 4096)
	for i := range sample {
		sample[i] = byte(i)
	}
	db.Begin()
	for s := 0; s < 512; s++ { // 2MB of samples
		if err := track.Append(sample); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("track: %d bytes in %d segments, tree depth %d\n",
		track.Size(), track.Segments(), track.Depth())

	db.Begin()
	r0, w0, _, _ := track.Stats()
	clip := bytes.Repeat([]byte("CLIP"), 1024)
	if err := track.Insert(track.Size()/2, clip); err != nil {
		log.Fatal(err)
	}
	r1, w1, _, _ := track.Stats()
	fmt.Printf("mid-track splice of %d bytes: %d segment reads, %d segment writes\n",
		len(clip), r1-r0, w1-w0)

	// Cut a scene back out.
	if err := track.Delete(track.Size()/4, 64<<10); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after cut: %d bytes\n", track.Size())

	if err := db.SaveVLO("track-1", track); err != nil {
		log.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		log.Fatal(err)
	}

	db.Begin()
	reopened, err := db.OpenVLO("track-1")
	if err != nil {
		log.Fatal(err)
	}
	db.Commit()
	probe := make([]byte, 4)
	if err := reopened.Read(reopened.Size()/2, probe); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reopened track: %d bytes, probe at midpoint: %q\n", reopened.Size(), probe)
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}
}
