package wire

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// moduleDeps returns the lsmkv packages pkg imports, directly or
// transitively, through its non-test files. root is the module root;
// pkg and the result are import paths relative to it.
func moduleDeps(t *testing.T, root, pkg string) []string {
	t.Helper()
	const module = "lsmkv/"
	seen := map[string]bool{}
	var visit func(rel string)
	visit = func(rel string) {
		entries, err := os.ReadDir(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, rel, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if dep, ok := strings.CutPrefix(path, module); ok && !seen[dep] {
					seen[dep] = true
					visit(dep)
				}
			}
		}
	}
	visit(pkg)
	deps := make([]string, 0, len(seen))
	for d := range seen {
		deps = append(deps, d)
	}
	sort.Strings(deps)
	return deps
}

// TestDependencyGuard keeps the protocol a leaf and the client off the
// engine: internal/wire may reach no lsmkv package but internal/kv, and
// internal/client none beyond the protocol, kv, iostat (trace and stats
// types) and replica (the Merkle tree type).
func TestDependencyGuard(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, c := range []struct {
		pkg     string
		allowed []string
	}{
		{"internal/wire", []string{"internal/kv"}},
		{"internal/client", []string{"internal/wire", "internal/kv", "internal/iostat", "internal/replica"}},
	} {
		ok := map[string]bool{}
		for _, a := range c.allowed {
			ok[a] = true
		}
		for _, dep := range moduleDeps(t, root, c.pkg) {
			if !ok[dep] {
				t.Errorf("%s imports lsmkv/%s (allowed: %v)", c.pkg, dep, c.allowed)
			}
		}
	}
}
