// Doclint is the repository's documentation linter, run as a CI job. It
// enforces two things with the standard library alone:
//
//   - Every relative markdown link in the repository's *.md files (README,
//     docs/, design notes) points at a file or directory that exists, so
//     renames and deletions cannot silently strand the documentation.
//   - Every exported identifier in the checked Go packages (by default the
//     root resim package and the internal packages listed below) carries
//     a doc comment, so the public surface stays godoc-complete.
//   - The metric inventory tables in docs/OBSERVABILITY.md match the
//     families the code actually registers (name, type and labels, both
//     directions), so the documented scrape surface cannot go stale.
//   - The analyzer inventory table in docs/STATIC_ANALYSIS.md matches the
//     analyzers cmd/resimvet registers (name and one-line invariant, both
//     directions), so the documented lint surface cannot go stale either.
//
// Usage:
//
//	doclint [-md DIR] [-metrics FILE] [-analyzers FILE] [pkgdir ...]
//
// -md sets the tree walked for markdown files (default "."). -metrics
// names the metric inventory document (default "docs/OBSERVABILITY.md";
// "" skips the check) and -analyzers the analyzer inventory document
// (default "docs/STATIC_ANALYSIS.md"; "" skips). Each pkgdir argument
// names one Go package directory to check for doc comments; with no
// arguments, ".", "./internal/faults", "./internal/jobd",
// "./internal/obs", "./internal/trace", "./internal/tracecache" and the
// internal/lint tree are checked. Findings are printed one per line as
// file:line: message, and the exit status is non-zero if there were any.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/jobd"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/sweepd"
	"repro/internal/tracecache"
)

func main() {
	mdRoot := flag.String("md", ".", "directory tree to scan for markdown files")
	metricsDoc := flag.String("metrics", "docs/OBSERVABILITY.md", "metric inventory document to diff against registered families (\"\" skips)")
	analyzersDoc := flag.String("analyzers", "docs/STATIC_ANALYSIS.md", "analyzer inventory document to diff against the resimvet registry (\"\" skips)")
	flag.Parse()
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = []string{
			".", "./internal/faults", "./internal/jobd", "./internal/obs",
			"./internal/trace", "./internal/tracecache",
			"./internal/lint", "./internal/lint/analysis", "./internal/lint/analysistest",
			"./internal/lint/ckptcomplete", "./internal/lint/determinism",
			"./internal/lint/lintutil", "./internal/lint/load",
			"./internal/lint/metriclint", "./internal/lint/wiresafe",
		}
	}

	var problems []string
	problems = append(problems, lintMarkdownTree(*mdRoot)...)
	for _, dir := range pkgs {
		problems = append(problems, lintPackageDocs(dir)...)
	}
	if *metricsDoc != "" {
		problems = append(problems, lintMetricsInventory(*metricsDoc)...)
	}
	if *analyzersDoc != "" {
		problems = append(problems, lintAnalyzerInventory(*analyzersDoc)...)
	}

	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("doclint: ok")
}

// registeredFamilies rebuilds the service's full metric inventory the way
// resimd wires it: every layer registers on one registry.
func registeredFamilies() []obs.FamilyInfo {
	reg := obs.NewRegistry()
	jobd.RegisterMetrics(reg)
	sweepd.RegisterCoordinatorMetrics(reg)
	tracecache.RegisterMetrics(reg, tracecache.New(tracecache.Config{}))
	return reg.Families()
}

// inventoryRow matches one metric table row in the inventory document:
// | `name` | type | labels | description |
var inventoryRow = regexp.MustCompile("^\\|\\s*`([a-zA-Z_:][a-zA-Z0-9_:]*)`\\s*\\|([^|]*)\\|([^|]*)\\|")

// lintMetricsInventory diffs the inventory document's metric tables
// against the families the code registers, in both directions: a family
// missing from the document, a documented metric no code registers, and
// type or label-set mismatches are all findings.
func lintMetricsInventory(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	type row struct {
		line        int
		typ, labels string
	}
	documented := map[string]row{}
	var problems []string
	for i, line := range strings.Split(string(data), "\n") {
		m := inventoryRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name, typ := m[1], strings.TrimSpace(m[2])
		// Only rows whose second cell is a metric type are inventory rows
		// (other tables also backtick their first cell — span events, API
		// routes). A typo'd type skips the row here and is then reported
		// as a registered-but-undocumented family.
		if typ != "counter" && typ != "gauge" && typ != "histogram" {
			continue
		}
		if _, dup := documented[name]; dup {
			problems = append(problems, fmt.Sprintf("%s:%d: metric %s documented twice", path, i+1, name))
			continue
		}
		labels := strings.TrimSpace(m[3])
		if labels == "—" || labels == "-" {
			labels = ""
		}
		documented[name] = row{line: i + 1, typ: typ, labels: labels}
	}

	fams := registeredFamilies()
	seen := map[string]bool{}
	for _, f := range fams {
		seen[f.Name] = true
		doc, ok := documented[f.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: registered metric %s (%s) is not in the inventory", path, f.Name, f.Type))
			continue
		}
		if doc.typ != f.Type {
			problems = append(problems, fmt.Sprintf("%s:%d: metric %s documented as %s, registered as %s", path, doc.line, f.Name, doc.typ, f.Type))
		}
		if want := strings.Join(f.Labels, ", "); doc.labels != want {
			problems = append(problems, fmt.Sprintf("%s:%d: metric %s documented with labels %q, registered with %q", path, doc.line, f.Name, doc.labels, want))
		}
	}
	var stale []string
	for name := range documented {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		problems = append(problems, fmt.Sprintf("%s:%d: documented metric %s is registered by no code", path, documented[name].line, name))
	}
	return problems
}

// analyzerRow matches one analyzer table row in the static-analysis
// document: | `name` | invariant |
var analyzerRow = regexp.MustCompile("^\\|\\s*`([a-z][a-z0-9]*)`\\s*\\|(.*)\\|\\s*$")

// lintAnalyzerInventory diffs the "Analyzer inventory" table in the
// static-analysis document against the analyzers cmd/resimvet registers
// through lint.Analyzers(), in both directions: an unregistered
// documented analyzer, an undocumented registered one, and a stale
// one-line invariant summary are all findings.
func lintAnalyzerInventory(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	type row struct {
		line    int
		summary string
	}
	documented := map[string]row{}
	var problems []string
	inSection := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			inSection = strings.TrimSpace(strings.TrimPrefix(line, "## ")) == "Analyzer inventory"
			continue
		}
		if !inSection {
			continue
		}
		m := analyzerRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		if _, dup := documented[name]; dup {
			problems = append(problems, fmt.Sprintf("%s:%d: analyzer %s documented twice", path, i+1, name))
			continue
		}
		documented[name] = row{line: i + 1, summary: strings.TrimSpace(m[2])}
	}

	seen := map[string]bool{}
	for _, a := range lint.Analyzers() {
		seen[a.Name] = true
		summary, _, _ := strings.Cut(a.Doc, "\n")
		doc, ok := documented[a.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: registered analyzer %s is not in the inventory", path, a.Name))
			continue
		}
		if doc.summary != summary {
			problems = append(problems, fmt.Sprintf("%s:%d: analyzer %s documented as %q, registered as %q", path, doc.line, a.Name, doc.summary, summary))
		}
	}
	var stale []string
	for name := range documented {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		problems = append(problems, fmt.Sprintf("%s:%d: documented analyzer %s is registered by no code", path, documented[name].line, name))
	}
	return problems
}

// lintMarkdownTree checks every *.md file under root for dead relative
// links.
func lintMarkdownTree(root string) []string {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			problems = append(problems, lintMarkdownFile(path)...)
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("%s: walk: %v", root, err))
	}
	return problems
}

// linkPattern matches inline markdown links and images,
// [text](target) / ![alt](target), capturing the target. Optional
// quoted titles after the target are tolerated.
var linkPattern = regexp.MustCompile(`!?\[[^\]]*\]\(([^()\s]+)(?:\s+"[^"]*")?\)`)

// lintMarkdownFile reports relative links in one markdown file whose
// targets do not exist on disk. Fenced code blocks are skipped — they
// quote syntax, they don't link.
func lintMarkdownFile(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	var problems []string
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkPattern.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if skipLinkTarget(target) {
				continue
			}
			// Drop a #fragment; what must exist is the file.
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems,
					fmt.Sprintf("%s:%d: dead link %q (no %s)", path, i+1, m[1], resolved))
			}
		}
	}
	return problems
}

// skipLinkTarget reports whether a link target is out of scope for the
// existence check: absolute URLs, mail links, and pure in-page anchors.
func skipLinkTarget(target string) bool {
	return strings.Contains(target, "://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#")
}

// lintPackageDocs reports exported identifiers in the package at dir
// that lack doc comments: functions and methods with exported receivers,
// types, and const/var groups (a group comment covers its members, a
// per-spec comment covers one).
func lintPackageDocs(dir string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", dir, err)}
	}
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems,
			fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Doc == nil && d.Name.IsExported() && exportedRecv(d) {
						report(d.Pos(), "function", funcName(d))
					}
				case *ast.GenDecl:
					problems = append(problems, lintGenDecl(fset, d, report)...)
				}
			}
		}
	}
	return problems
}

// lintGenDecl checks one type/const/var declaration. The declaration's
// own doc comment satisfies every spec inside it.
func lintGenDecl(fset *token.FileSet, d *ast.GenDecl, report func(token.Pos, string, string)) []string {
	if d.Doc != nil {
		return nil
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Doc == nil && s.Comment == nil && s.Name.IsExported() {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(s.Pos(), d.Tok.String(), name.Name)
				}
			}
		}
	}
	return nil
}

// exportedRecv reports whether a function is package-level or a method
// on an exported type; methods of unexported types are not godoc
// surface.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// funcName renders "Name" or "(Recv).Name" for diagnostics.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	var b strings.Builder
	b.WriteString("(")
	writeRecvType(&b, d.Recv.List[0].Type)
	b.WriteString(").")
	b.WriteString(d.Name.Name)
	return b.String()
}

func writeRecvType(b *strings.Builder, t ast.Expr) {
	switch x := t.(type) {
	case *ast.StarExpr:
		b.WriteString("*")
		writeRecvType(b, x.X)
	case *ast.Ident:
		b.WriteString(x.Name)
	default:
		b.WriteString("?")
	}
}
