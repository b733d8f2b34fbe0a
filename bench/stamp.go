package main

import (
	"bufio"
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// stamp records where and on what a run was measured. LOC is data, not a
// gated metric: it lets "the same numbers from less code" be measured.
type stamp struct {
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPU        string         `json:"cpu_model"`
	Go         string         `json:"go_version"`
	GitSHA     string         `json:"git_sha"`
	GitDirty   *bool          `json:"git_dirty,omitempty"`
	Scale      string         `json:"scale"`
	Seed       uint64         `json:"seed"`
	LOC        map[string]loc `json:"loc"`
}

// loc counts one package's source lines, tests apart.
type loc struct {
	Src  int `json:"src"`
	Test int `json:"test"`
}

func newStamp(root string, seed uint64, records int) stamp {
	st := stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		GitSHA:     "unknown",
		Scale:      "default",
		Seed:       seed,
		LOC:        countLOC(root),
	}
	if records > 0 {
		st.Scale = "custom:records=" + strconv.Itoa(records)
	}
	// Only the checkout's own repository counts, not one enclosing it.
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return st
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		st.GitSHA = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			dirty := len(bytes.TrimSpace(out)) > 0
			st.GitDirty = &dirty
		}
	}
	return st
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// countLOC counts the lines of every Go package under root, keyed by its
// directory, skipping hidden directories (VCS data, build outputs).
func countLOC(root string) map[string]loc {
	out := map[string]loc{}
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // unreadable entries are skipped
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		l := out[filepath.ToSlash(rel)]
		if strings.HasSuffix(path, "_test.go") {
			l.Test += bytes.Count(b, []byte("\n"))
		} else {
			l.Src += bytes.Count(b, []byte("\n"))
		}
		out[filepath.ToSlash(rel)] = l
		return nil
	})
	return out
}
