package bess

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"strconv"
	"strings"
	"testing"

	"bess/internal/proto"
)

// A tombstone is a mechanism a change deleted, kept out by a regexp: no line
// of a file the row scans may match it, unless the file is allowed. A change
// that deletes a mechanism adds a row here, not a CI step.
type tombstone struct {
	re string // matched line by line, as grep does
	// in lists the trees and files scanned, as slash paths from the module
	// root; every file in them is read, whatever its extension.
	in []string
	// allowed lists the files that may match: a directory ("internal/tx/"),
	// a file, or a glob (one without a slash matches base names: "*_test.go").
	allowed []string
	why     string // the rule, and the DESIGN.md section that states it
}

// tree is the module's code: its packages, commands, examples and the
// benchmark suite (benchmark/ is a module of its own).
var tree = []string{"internal", "cmd", "examples", "bench_test.go"}

var tombstones = []tombstone{
	{`//bess:holds|//bess:hotpath|runVettool|analyzeLockOrder|analyzeHotAlloc`, tree, nil,
		"lock order and caller-holds are internal/lockcheck's at run time, allocation budgets are AllocsPerRun tests, and bess-vet has one driver (DESIGN.md §4c, §4f)"},
	{`bufio\.NewWriter|sync\.Pool|proto\.Encode\(`, []string{"internal/rpc"}, []string{"*_test.go"},
		"a frame's message is encoded once, straight into the peer's pending batch: no encoded body copied in, no bufio.Writer; a Commit body is lent by its peer until its write-back ends, and nothing else is pooled (DESIGN.md §4b)"},
	{`"bess/internal/cache"`, []string{"internal/client"}, []string{"*_test.go"},
		"the client holds pushed images as they arrived: no private frame pool in the prefetcher (DESIGN.md §4b)"},
	{`methodNames|methodIDs`, tree, []string{"*_test.go"},
		"every rpc method is declared once, in internal/proto's method table: no hand-kept id table (DESIGN.md §4b)"},
	{`map\[proto\.SegKey\]map\[uint32\]bool|^func \([a-z]* \*?[A-Za-z]*\) [rR]evoke|^package callback\b|"bess/internal/callback"`, tree, nil,
		"one holder table, internal/lock's: a cached copy is a lock, and an X calls the copies back itself, for the server and the node server alike; no copy table or revoke loop beside it, and no internal/callback (DESIGN.md §9)"},
	{`\bFetchSlotted\b`, tree, []string{"*_test.go", "internal/swizzle/", "internal/client/session.go"},
		"a segment image leaves a server one way, FetchSeg: the two-step fetch is only the mapper's client-side steps over the one held image (DESIGN.md §9)"},
	{`walcheck|bess:walorder|bess:walsink|bess:verified`, tree, nil,
		"log before data is a type: page stores take a wal.Logged, overwrites a cache.Staged (DESIGN.md §4f)"},
	{`LogUpdate|logAndSteal|TCLR|UndoNext|UndoApplied|\.Logged\(\)|ErrDirtySeg`, tree, nil,
		"nothing steals: no page reaches an area before its commit record is durable, so no undo half, compensation record, undo pass or steal path (DESIGN.md §4f)"},
	{`Type: *(wal\.)?TUpdate`, tree, []string{"internal/wal/*_test.go"},
		"an update record is the codec's, kept for the benchmark module's log probe; only package wal's tests make one (DESIGN.md §4f)"},
	{`bess:resource|bess:lockfree`, tree, nil,
		"a cache pin is a cache.Pin handle and the snapshot read path holds no lock manager: the analyzers' directives are gone (DESIGN.md §4d)"},
	{`^[[:space:]]+pins[[:space:]]|func \(vs \*VersionStore\) Release`, []string{"internal/cache/versions.go"}, nil,
		"a version image is returned by value: no version pin (DESIGN.md §4d)"},
	{`map\[uint64\]\*tx\.Tx|map\[uint64\]txEntry`, tree, []string{"internal/tx/"},
		"a live transaction's state, owner and last LSN are in tx.Manager's table and nowhere else (DESIGN.md §4c)"},
	{`wal\.Recover\b|^func Recover\b`, tree, nil,
		"a rollback, at run time or at restart, is Tx.Abort: package wal ends no transaction for itself (DESIGN.md §4c)"},
	{`Iterate\(|Replayer`, []string{"internal/server/catalog.go"}, nil,
		"the catalog's replay rides restart's analysis pass as a visitor: no walk or replay of its own (DESIGN.md §5)"},
	{`ActiveTxs|CkptTx|wal\.Redo\b|func Redo\b`, tree, nil,
		"which transactions are open is read off their own records: no checkpoint transaction list, and redo is restart's one pass (DESIGN.md §5)"},
	{`ReadRecord|chainWrites`, tree, []string{"*_test.go"},
		"the log is read forward only, a decided branch's page writes too: no read of a record by its LSN, no walk back along PrevLSN (DESIGN.md §5)"},
	{`asOfBefores|overlayAsOf|ErrTrimmed|rebuild:|SnapshotCount|maxVersions|cloneImage`, tree, nil,
		"a snapshot read is a version-chain image or the disk image, kept by watermark alone: no log rewind, no capture for an open snapshot, no per-segment cap (DESIGN.md §7)"},
	{`Iterate\(`, []string{"internal/server/snapshot.go", "internal/server/read.go"}, nil,
		"as-of reads never read the log (DESIGN.md §7)"},
	{`\b(updateBase|logAndApply|CommitDistributed|NewCoordinator)\b`, tree, []string{"*_test.go"},
		"a shipped section takes one step through the server's commit: no per-section copies, no one-call wrappers, no 2PC coordinator no product path ran (DESIGN.md §5)"},
	{`\bScanSeg\b`, tree, []string{"*_test.go"},
		"a scan is consumed in the order it is pushed: no scan plan on the wire (DESIGN.md §6)"},
	{`SegInfo\(`, []string{"internal/server/scan.go"}, nil,
		"no per-segment SegInfo pass builds a scan plan (DESIGN.md §6)"},
	{`persistLocked|persistNames`, tree, nil,
		"catalog changes are log records applied by catalog.apply: no write-through helpers (DESIGN.md §5)"},
	{`catalog\.bess|writeImage|loadCatalog|NamesEnc`, tree, []string{"*_test.go"},
		"restart rebuilds the catalog from the log's records alone: no checkpoint image, codec or loader; tests may write an old catalog.bess to see it ignored (DESIGN.md §5)"},
}

// TestTombstones holds the tree to every row of tombstones, and refuses a
// row that could not hold it: a regexp that does not compile, a row with no
// reason, a scanned path that is not there, or an allowed entry that names no
// scanned file (so a moved directory cannot empty a row).
func TestTombstones(t *testing.T) {
	files := make(map[string][]byte)
	for i, r := range tombstones {
		re, err := regexp.Compile(`(?m)` + r.re)
		if err != nil {
			t.Errorf("row %d: %v", i, err)
			continue
		}
		parsed, _ := syntax.Parse(r.re, syntax.Perl)
		needles := needles(parsed.Simplify())
		if r.why == "" {
			t.Errorf("row %d (%s): no reason", i, r.re)
		}
		var scanned []string
		for _, p := range r.in {
			err := filepath.WalkDir(filepath.FromSlash(p), func(name string, d fs.DirEntry, err error) error {
				if err == nil && d.Type().IsRegular() {
					scanned = append(scanned, filepath.ToSlash(name))
				}
				return err
			})
			if err != nil {
				t.Errorf("row %d (%s): %v", i, r.re, err)
			}
		}
		used := make([]bool, len(r.allowed))
		for _, name := range scanned {
			ok := false
			for j, a := range r.allowed {
				if allows(a, name) {
					used[j], ok = true, true
				}
			}
			if ok {
				continue
			}
			src, seen := files[name]
			if !seen {
				if src, err = os.ReadFile(name); err != nil {
					t.Fatal(err)
				}
				files[name] = src
			}
			if !containsAny(src, needles) || !re.Match(src) {
				continue
			}
			for n, line := range bytes.Split(src, []byte("\n")) {
				if re.Match(line) {
					t.Errorf("%s:%d: %s\n\tmatches %s: %s", name, n+1, bytes.TrimSpace(line), r.re, r.why)
				}
			}
		}
		for j, a := range r.allowed {
			if !used[j] {
				t.Errorf("row %d (%s): allowed %q names no file the row scans", i, r.re, a)
			}
		}
	}
}

// needles returns strings one of which is in every match of re, or nil if
// it finds none: a file with none of them is not run through the regexp,
// whose matcher is slow over text with no literal to look for.
func needles(re *syntax.Regexp) []string {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 {
			return []string{string(re.Rune)}
		}
	case syntax.OpCapture:
		return needles(re.Sub[0])
	case syntax.OpAlternate:
		var out []string
		for _, sub := range re.Sub {
			n := needles(sub)
			if n == nil {
				return nil
			}
			out = append(out, n...)
		}
		return out
	case syntax.OpConcat:
		var best []string
		for _, sub := range re.Sub {
			if n := needles(sub); n != nil && (best == nil || len(n) < len(best)) {
				best = n
			}
		}
		return best
	}
	return nil
}

func containsAny(src []byte, needles []string) bool {
	for _, n := range needles {
		if bytes.Contains(src, []byte(n)) {
			return true
		}
	}
	return needles == nil
}

func allows(pattern, name string) bool {
	switch {
	case strings.HasSuffix(pattern, "/"):
		return strings.HasPrefix(name, pattern)
	case !strings.Contains(pattern, "/"):
		name = path.Base(name)
	}
	ok, _ := path.Match(pattern, name)
	return ok
}

// TestNoTableMethodNamedByString: a call, a stream, a named frame and a
// handler name a table method by its descriptor (proto.Methods), which gives
// the wire id and types the messages. A table method's name as a string
// literal — an argument of a call, a stream, a named frame or a handler, or
// the key of a Typed handler — must not come back. Named frames (CallRaw,
// Handle) stay for names outside the table: tests and probes.
func TestNoTableMethodNamedByString(t *testing.T) {
	table := make(map[string]bool)
	for _, d := range proto.Methods {
		if d.ID != 0 {
			table[d.Name] = true
		}
	}
	if len(table) == 0 {
		t.Fatal("proto.Methods is empty")
	}
	named := func(e ast.Expr) string {
		if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil && table[s] {
				return s
			}
		}
		return ""
	}
	callee := func(call *ast.CallExpr) string {
		fun := call.Fun
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = f.X
		case *ast.IndexListExpr:
			fun = f.X
		}
		switch f := fun.(type) {
		case *ast.Ident:
			return f.Name
		case *ast.SelectorExpr:
			return f.Sel.Name
		}
		return ""
	}
	// The calls that take a method's name: Call, CallRaw, Handle, SendStream,
	// HandleStream and the rpc package's own call, whatever their receiver.
	takesName := regexp.MustCompile(`([Cc]all|CallRaw|Handle|Stream)$`)
	fset := token.NewFileSet()
	for _, dir := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(dir, func(name string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if fn := callee(n); takesName.MatchString(fn) {
						for _, arg := range n.Args {
							if s := named(arg); s != "" {
								t.Errorf("%s: %s names table method %q by a string: use proto's descriptor", fset.Position(arg.Pos()), fn, s)
							}
						}
					}
				case *ast.KeyValueExpr:
					if call, ok := n.Value.(*ast.CallExpr); ok && strings.HasSuffix(callee(call), "Typed") {
						if s := named(n.Key); s != "" {
							t.Errorf("%s: handler keyed by table method %q as a string: use proto's descriptor", fset.Position(n.Pos()), s)
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartReadsTheLogTwice: restart walks the log in one analysis pass
// from the first record (the catalog's replay riding it as a visitor) and one
// redo pass from the redo start, so recovery.go calls walk twice. A third
// walk is a second reader of the log restart does not need.
func TestRestartReadsTheLogTwice(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.FromSlash("internal/wal/recovery.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	walks := 0
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "walk" {
				walks++
			}
		}
		return true
	})
	if walks != 2 {
		t.Fatalf("internal/wal/recovery.go calls walk %d times, want 2: one analysis pass and one redo pass", walks)
	}
}

// TestNoGobInAProductBinary: the wire and the log's catalog records have one
// codec, internal/proto; gob survives only as E12's bench-side baseline.
func TestNoGobInAProductBinary(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./cmd/bess-server", "./cmd/bess-inspect").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if dep == "encoding/gob" {
			t.Fatal("encoding/gob is a dependency of cmd/bess-server or cmd/bess-inspect")
		}
	}
}
