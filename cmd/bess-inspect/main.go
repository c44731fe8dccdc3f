// bess-inspect dumps the on-disk structures of a BeSS server directory:
// the catalog (what restart built it from; databases, areas, files, types,
// root names), each storage area's geometry and segments, and the
// write-ahead log record stream, catalog records decoded.
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
	// What restart built the catalog from: the checkpoint image and the
	// catalog records the log holds at or above its stamp.
	if info.ImageLSN == 0 {
		fmt.Printf("catalog: no image; %d log records replayed\n", info.Replayed)
	} else {
		fmt.Printf("catalog: image stamped lsn %d + %d log records replayed\n", info.ImageLSN, info.Replayed)
	}
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
			case wal.TRedo:
				// The redo image, offset+length. A whole-page image anchors
				// replay of its page: restart redo and repair start from one,
				// byte-range records build on it. An all-zero image is in the
				// log as its length only.
				mark := ""
				if rec.WholePage() {
					mark += "  anchor"
				}
				if fp.ZeroAfter > 0 {
					mark += "  zero"
				}
				fmt.Printf("  %8d %-10s tx=%-6d page=%v redo=%d+%d%s\n",
					lsn, rec.Type, rec.Tx, rec.Page, rec.Off, len(rec.After), mark)
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
			fmt.Printf("\n  anchor horizon: lsn %d (the lowest latest committed anchor of any page)\n", h)
		} else {
			fmt.Printf("\n  anchor horizon: none (no committed anchor)\n")
		}
	}
}

// logTotals answers "where do the log's bytes go": per record type, how many
// records, and their bytes split into header (everything that is not an
// image), images stored, and image bytes elided (all-zero images the log
// keeps as a length). A row per record type there is, and whole-page redo
// records (anchors) have a row of their own beside the byte ranges (redo).
type logTotals struct {
	byType [wal.NumTypes]logTotal
	anchor logTotal
}

type logTotal struct {
	records int
	wal.Footprint
}

func (tt *logTotal) add(records int, fp wal.Footprint) {
	tt.records += records
	tt.Header += fp.Header
	tt.After += fp.After
	tt.ZeroAfter += fp.ZeroAfter
}

// add counts rec, whose footprint is fp.
func (t *logTotals) add(rec *wal.Record, fp wal.Footprint) {
	if rec.Type == wal.TRedo && rec.WholePage() {
		t.anchor.add(1, fp)
		return
	}
	t.byType[rec.Type].add(1, fp)
}

func (t *logTotals) print() {
	fmt.Printf("\n  %-10s %9s %12s %12s %12s\n", "type", "records", "header B", "image B", "elided B")
	var sum logTotal
	row := func(name string, tt logTotal) {
		if tt.records > 0 {
			fmt.Printf("  %-10s %9d %12d %12d %12d\n", name, tt.records, tt.Header, tt.After, tt.ZeroAfter)
			sum.add(tt.records, tt.Footprint)
		}
	}
	for typ, tt := range t.byType {
		row(wal.Type(typ).String(), tt)
		if wal.Type(typ) == wal.TRedo {
			row("anchor", t.anchor)
		}
	}
	fmt.Printf("  %-10s %9d %12d %12d %12d\n", "total", sum.records, sum.Header, sum.After, sum.ZeroAfter)
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
