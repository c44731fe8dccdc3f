// bess-inspect dumps the on-disk structures of a BeSS server directory:
// the catalog (how many log records restart rebuilt it from; databases,
// areas, files, types, root names), each storage area's geometry and
// segments, and the write-ahead log record stream, catalog records decoded.
//
// Usage:
//
//	bess-inspect -dir /var/bess [-log] [-segments] [-verify]
//
// -verify runs the same checksum walker the server's background scrubber
// uses over every segment (offline scrub): corruption found on any section
// is repaired from WAL history where possible, unrepairable segments are
// reported as quarantined, and the log itself is checked for mid-stream
// rot. Exit status 1 when damage remains.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"bess/internal/area"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
	"bess/internal/server"
	"bess/internal/wal"
)

func main() {
	dir := flag.String("dir", "bess-data", "server storage directory")
	showLog := flag.Bool("log", false, "dump the WAL record stream")
	showSegs := flag.Bool("segments", false, "decode every object segment header")
	verify := flag.Bool("verify", false, "offline scrub: verify every checksum, repairing from WAL history")
	flag.Parse()

	if _, err := os.Stat(*dir); err != nil {
		log.Fatalf("no server directory at %s", *dir)
	}

	// The catalog: open through the server (runs recovery, so what we
	// print is the consistent post-restart state).
	srv, err := server.Open(*dir, 0)
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	info := srv.Inspect()
	damaged := false
	if *verify {
		damaged = runVerify(srv)
	}
	if err := srv.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
	if damaged {
		// Registered before the dump sections' defers, so it runs last:
		// the full report prints, then the process fails.
		defer os.Exit(1)
	}

	fmt.Printf("BeSS server directory %s\n", *dir)
	// Restart rebuilds the catalog from the catalog records of the log.
	fmt.Printf("catalog: %d catalog records replayed\n", info.Replayed)
	for _, db := range info.Databases {
		fmt.Printf("\ndatabase %q (id %d)\n", db.Name, db.ID)
		fmt.Printf("  areas:    %v\n", db.Areas)
		fmt.Printf("  types:    %d registered\n", db.Types)
		fmt.Printf("  segments: %d across %d files\n", db.Segments, db.Files)
		if len(db.Roots) > 0 {
			fmt.Printf("  roots:    %s\n", strings.Join(db.Roots, ", "))
		}
	}

	// Areas: open read-only and report geometry.
	matches, _ := filepath.Glob(filepath.Join(*dir, "area-*.bess"))
	for _, path := range matches {
		a, err := area.OpenFile(path)
		if err != nil {
			fmt.Printf("\n%s: %v\n", path, err)
			continue
		}
		fmt.Printf("\n%s: area %d, %d extents, %d pages, %d free pages\n",
			filepath.Base(path), a.ID(), a.Extents(), a.Pages(), a.FreePages())
		if *showSegs {
			dumpSegments(a)
		}
		if err := a.Close(); err != nil {
			fmt.Printf("%s: close: %v\n", path, err)
		}
	}

	if *showLog {
		fmt.Printf("\nwrite-ahead log:\n")
		l, err := wal.OpenFile(filepath.Join(*dir, "wal.log"))
		if err != nil {
			log.Fatalf("open log: %v", err)
		}
		defer func() {
			if err := l.Close(); err != nil {
				log.Fatalf("close log: %v", err)
			}
		}()
		n := 0
		var totals logTotals
		// Restart's analysis pass walks the log and finds the anchor horizon.
		an, err := wal.Analyze(l, func(lsn page.LSN, rec *wal.Record) error {
			n++
			fp := rec.Footprint()
			totals.add(rec, fp)
			switch rec.Type {
			case wal.TRedo, wal.TCommit, wal.TPrepare, wal.TAbort, wal.TRollback:
				// The record, then each page it changes, on a line of its own:
				// a whole-page image anchors replay of its page — restart redo
				// and repair start from one — and runs of bytes build on it,
				// the first as redo=offset+length, each after it as
				// +gap+length from the run before. A run that is all zero is
				// in the log as its length only (zero).
				fmt.Printf("  %8d %-10s tx=%-6d pages=%d\n", lsn, rec.Type, rec.Tx, rec.Pages())
				for i := range rec.Changes {
					c := &rec.Changes[i]
					switch {
					case i > 0 && c.Page == rec.Changes[i-1].Page:
						prev := &rec.Changes[i-1]
						fmt.Printf(",+%d+%d", int(c.Off)-int(prev.Off)-len(prev.After), len(c.After))
					case c.WholePage():
						fmt.Printf("  %8s   page=%v anchor", "", c.Page)
					default:
						fmt.Printf("  %8s   page=%v redo=%d+%d", "", c.Page, c.Off, len(c.After))
					}
					if c.Zero() {
						fmt.Print("(zero)")
					}
					if i == len(rec.Changes)-1 || rec.Changes[i+1].Page != c.Page {
						fmt.Println()
					}
				}
			case wal.TCatalog:
				var op proto.CatalogOp
				if err := proto.Decode(rec.Body, &op); err != nil {
					fmt.Printf("  %8d %-10s undecodable (%d bytes): %v\n", lsn, rec.Type, len(rec.Body), err)
				} else {
					fmt.Printf("  %8d %-10s %v\n", lsn, rec.Type, &op)
				}
			case wal.TCheckpoint:
				fmt.Printf("  %8d %-10s dirty=%d\n", lsn, rec.Type, len(rec.DirtyPages))
				for _, e := range rec.DirtyPages {
					fmt.Printf("  %8s   page=%v recLSN=%d\n", "", e.Page, e.RecLSN)
				}
			default:
				fmt.Printf("  %8d %-10s tx=%d\n", lsn, rec.Type, rec.Tx)
			}
			return nil
		})
		if err != nil {
			log.Fatalf("iterate: %v", err)
		}
		fmt.Printf("  %d records\n", n)
		totals.print()
		// The oldest record a replay of some page's history still starts from:
		// what a truncation of the log could not pass.
		if h := an.Stats.AnchorHorizon; h != 0 {
			fmt.Printf("\n  anchor horizon: lsn %d (the lowest latest anchor of any page)\n", h)
		} else {
			fmt.Printf("\n  anchor horizon: none (no anchor took effect)\n")
		}
	}
}

// logTotals answers "where do the log's bytes go": per record type, how many
// records, page changes and their runs (of them, whole-page anchors), and
// their bytes split into header (everything that is not an image), images
// stored, and image bytes elided (all-zero images the log keeps as a length).
type logTotals [wal.NumTypes]logTotal

type logTotal struct {
	records, pages, runs, anchors int
	wal.Footprint
}

func (tt *logTotal) add(o logTotal) {
	tt.records += o.records
	tt.pages += o.pages
	tt.runs += o.runs
	tt.anchors += o.anchors
	tt.Header += o.Header
	tt.After += o.After
	tt.ZeroAfter += o.ZeroAfter
}

// add counts rec, whose footprint is fp.
func (t *logTotals) add(rec *wal.Record, fp wal.Footprint) {
	o := logTotal{records: 1, pages: rec.Pages(), runs: len(rec.Changes), Footprint: fp}
	for i := range rec.Changes {
		if rec.Changes[i].WholePage() {
			o.anchors++
		}
	}
	t[rec.Type].add(o)
}

func (t *logTotals) print() {
	fmt.Printf("\n  %-10s %9s %9s %9s %9s %12s %12s %12s\n", "type", "records", "pages", "runs", "anchors", "header B", "image B", "elided B")
	var sum logTotal
	row := func(name string, tt logTotal) {
		fmt.Printf("  %-10s %9d %9d %9d %9d %12d %12d %12d\n", name, tt.records, tt.pages, tt.runs, tt.anchors, tt.Header, tt.After, tt.ZeroAfter)
	}
	for typ, tt := range t {
		if tt.records > 0 {
			row(wal.Type(typ).String(), tt)
			sum.add(tt)
		}
	}
	row("total", sum)
}

// runVerify is the offline scrub: one pass of the server's own checksum
// walker (ScrubOnce) plus a WAL integrity sweep. Returns true when damage
// survives (quarantined segments or an unreadable log).
func runVerify(srv *server.Server) bool {
	fmt.Printf("\nverify: walking all segments through the checksum scrubber\n")
	st, err := srv.ScrubOnce()
	if err != nil {
		fmt.Printf("  scrub error: %v\n", err)
	}
	fmt.Printf("  segments checked:  %d\n", st.SegmentsChecked)
	fmt.Printf("  pages verified:    %d\n", st.PagesVerified)
	fmt.Printf("  corruptions found: %d\n", st.CorruptionsFound)
	fmt.Printf("  repaired from WAL: %d\n", st.Repaired)
	fmt.Printf("  quarantined:       %d\n", st.Quarantined)
	for seg, cause := range srv.Quarantined() {
		fmt.Printf("    quarantined segment %d/%d: %s\n", seg.Area, seg.Start, cause)
	}
	walStats, walErr := srv.Log().Verify()
	if walErr != nil {
		fmt.Printf("  wal: CORRUPT after %d records (%d bytes): %v\n",
			walStats.Records, walStats.Bytes, walErr)
	} else {
		fmt.Printf("  wal: %d records (%d bytes) verified\n", walStats.Records, walStats.Bytes)
	}
	return err != nil || st.Quarantined > 0 || walErr != nil
}

// dumpSegments walks an area's pages looking for slotted-segment headers.
func dumpSegments(a *area.Area) {
	buf := make([]byte, page.Size)
	for p := page.No(1); p < a.Pages(); p++ {
		if err := a.ReadPage(p, buf); err != nil {
			continue
		}
		seg, err := segment.DecodeSlotted(buf)
		if err != nil {
			continue
		}
		fmt.Printf("    segment @%d: file=%d slots=%d objects=%d data=%d:%d(%dp, %dB used, %dB garbage)\n",
			p, seg.Hdr.FileID, seg.Hdr.NSlots, seg.Hdr.NObjects,
			seg.Hdr.DataArea, seg.Hdr.DataStart, seg.Hdr.DataPages,
			seg.Hdr.DataUsed, seg.Hdr.DataGarbage)
	}
}
