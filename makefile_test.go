package omxsim

// A guard on the Makefile's test batteries: `go test -run X` passes
// silently when X matches nothing, so a battery whose filter names a
// test that was renamed or moved to another package would keep
// passing while running nothing. Every term of every -run filter must
// match a test, fuzz target, benchmark or example in at least one of
// the packages its command names.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFlag matches a -run filter, quoted or bare.
var runFlag = regexp.MustCompile(`-run\s+(?:'([^']*)'|"([^"]*)"|(\S+))`)

// testFunc matches the top-level functions go test can run.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)

// makeCommands returns the Makefile's recipe lines with their
// backslash continuations joined and make's $$ unescaped.
func makeCommands(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(raw), "\\\n", " ")
	return strings.Split(strings.ReplaceAll(text, "$$", "$"), "\n")
}

// testFuncs lists the runnable test functions of the package in dir,
// or of every package under it when recursive.
func testFuncs(t *testing.T, dir string, recursive bool) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!recursive || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestMakefileRunFiltersMatch(t *testing.T) {
	checked := 0
	for _, line := range makeCommands(t) {
		if !strings.Contains(line, " test ") {
			continue
		}
		m := runFlag.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		filter := m[1] + m[2] + m[3]
		if filter == "^$" {
			continue // runs no test, by design
		}
		var funcs []string
		for _, arg := range strings.Fields(line) {
			if arg == "." || strings.HasPrefix(arg, "./") {
				dir, recursive := strings.CutSuffix(arg, "/...")
				funcs = append(funcs, testFuncs(t, dir, recursive)...)
			}
		}
		if len(funcs) == 0 {
			t.Errorf("Makefile: no test functions in the packages of %q", strings.TrimSpace(line))
			continue
		}
		for _, term := range strings.Split(filter, "|") {
			top, _, _ := strings.Cut(term, "/")
			re, err := regexp.Compile(top)
			if err != nil {
				t.Errorf("Makefile: -run term %q: %v", term, err)
				continue
			}
			found := false
			for _, f := range funcs {
				if re.MatchString(f) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("Makefile: -run term %q of %q matches no test in its packages", term, filter)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no -run filter found in the Makefile — checker miswired?")
	}
}
