package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedFile matches a cited Markdown document or a benchmark snapshot
// file name, with any directory prefix.
var citedFile = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b|BENCH_\w+\.json`)

// TestCitedFilesExist checks that every Markdown document or BENCH_*.json
// snapshot a source file, document, the Makefile or a CI workflow names
// exists, relative to the citing file's directory or to the repository
// root. Two kinds of file are not checked: the Markdown files at the
// root, which are the change history, plans, paper notes and generated
// tables and may name files that no longer or do not yet exist; and
// anything under a dot-directory other than .github, which holds
// version-control state, build output and tool settings.
func TestCitedFilesExist(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && strings.HasPrefix(name, ".") && name != ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		isDoc := strings.HasSuffix(name, ".md")
		inWorkflows := filepath.Dir(path) == filepath.Join(".github", "workflows")
		scanned := strings.HasSuffix(name, ".go") || isDoc || name == "Makefile" || inWorkflows
		if !scanned || (isDoc && path == name) {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, cited := range citedFile.FindAllString(string(text), -1) {
			if !exists(filepath.Join(filepath.Dir(path), cited)) && !exists(cited) {
				t.Errorf("%s cites %s, which exists neither beside it nor at the repository root", path, cited)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
