package core_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// layerRanks is the module's package layering (docs/ARCHITECTURE.md):
// the runtime at the bottom, then the sanitizers and the flow monitor,
// the boundary adapters, the servers, the applications and the driver
// facade, and the harnesses that drive applications on top. "apps/*"
// ranks every application package.
var layerRanks = map[string]int{
	"internal/core":       0,
	"internal/vet":        0, // the static checker reads source; it links nothing of the module
	"internal/sanitize":   1,
	"internal/lineage":    1,
	"internal/sqldb":      2,
	"internal/vfs":        2,
	"internal/mail":       2,
	"internal/remote":     2,
	"internal/whois":      2,
	"internal/httpd":      3,
	"internal/script":     3,
	"internal/wire":       3,
	"internal/apps/*":     4,
	"resinsql":            4,
	"internal/seceval":    5,
	"internal/microbench": 5,
}

func layerRank(pkg string) (int, bool) {
	if r, ok := layerRanks[pkg]; ok {
		return r, true
	}
	r, ok := layerRanks[path.Dir(pkg)+"/*"]
	return r, ok
}

// TestPackageLayering is the architecture guard: every module-internal
// import in the non-test files of internal/* and resinsql points to a
// package of strictly lower rank, so the runtime → boundary → apps
// layering cannot re-tangle. Rank-0 packages import only the standard
// library: internal/core, whose policy objects, data tracking, filter
// objects and interning every boundary adapter builds on, and
// internal/vet. A stdlib import path has no dot in its first element
// ("encoding/json", "sync"), while other module paths do ("resin" is
// dot-free too, so module-internal imports are matched by prefix).
// A package missing from the rank table fails the test, so a new
// package must take a rank when it is added. Tests may import upward
// (an external test package drives its subject from above).
func TestPackageLayering(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	checked := 0
	for _, top := range []string{"internal", "resinsql"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			pkg := filepath.ToSlash(rel)
			entries, err := os.ReadDir(dir)
			if err != nil {
				return err
			}
			for _, e := range entries {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				rank, ok := layerRank(pkg)
				if !ok {
					t.Errorf("package %s has no rank in layerRanks", pkg)
					return nil
				}
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
				if err != nil {
					t.Errorf("parse %s/%s: %v", pkg, name, err)
					continue
				}
				checked++
				for _, imp := range f.Imports {
					p := strings.Trim(imp.Path.Value, `"`)
					first, _, _ := strings.Cut(p, "/")
					if first != "resin" {
						if rank == 0 && strings.Contains(first, ".") {
							t.Errorf("%s/%s imports %s: %s must import only the standard library", pkg, name, p, pkg)
						}
						continue
					}
					target := strings.TrimPrefix(p, "resin/")
					to, ok := layerRank(target)
					if !ok || to >= rank {
						t.Errorf("%s/%s imports %s: rank %d may import only packages of lower rank (%s has rank %d, known %v)",
							pkg, name, p, rank, target, to, ok)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walk %s: %v", top, err)
		}
	}
	if checked == 0 {
		t.Fatal("no package files found; the guard checked nothing")
	}
}
