package harness

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Table2 reproduces the paper's Table 2: the implementation effort of
// each availability enhancement, in non-commented source lines (NCSL),
// against the unavailability reduction it buys over base COOP.
func (fg *Figures) Table2() (Table, error) {
	t := Table{
		Name:   "table2",
		Title:  "Implementation effort vs unavailability reduction",
		Header: []string{"enhancement", "NCSL", "unavailability reduction"},
	}
	if err := defaultEngine.prewarmCampaigns(fg.Opts, fg.Sched, VCOOP, VMEM, VMQ, VFME); err != nil {
		return t, err
	}
	coop, err := fg.measured(VCOOP, fg.Opts)
	if err != nil {
		return t, err
	}
	reduction := func(v Version) (string, error) {
		r, err := fg.measured(v, fg.Opts)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%.0f%%", 100*(1-r.Unavailability/coop.Unavailability)), nil
	}

	membLines := packageNCSL("membership")
	qmonLines := packageNCSL("qmon")
	fmeLines := packageNCSL("fme")

	memRed, err := reduction(VMEM)
	if err != nil {
		return t, err
	}
	mqRed, err := reduction(VMQ)
	if err != nil {
		return t, err
	}
	fmeRed, err := reduction(VFME)
	if err != nil {
		return t, err
	}
	t.Rows = [][]string{
		{"Membership", fmt.Sprintf("%d", membLines), memRed},
		{"Queue Monitoring + Membership", fmt.Sprintf("%d", membLines+qmonLines), mqRed},
		{"Queue Monitoring + Membership + FME", fmt.Sprintf("%d", membLines+qmonLines+fmeLines), fmeRed},
	}
	t.Notes = append(t.Notes,
		"NCSL counted over this repository's availability subsystems (non-test Go lines, comments, blanks and snapshot support excluded)",
		"paper: 1638 NCSL bought a 94% reduction — an 11% change to the code base")
	return t, nil
}

// packageNCSL counts non-comment source lines of the named sibling
// package, leaving out its snapshot support (snapshot.go), which serves
// the simulator's fork engine, not the enhancement. It locates sources
// relative to this file (a source checkout); a stripped binary reports 0
// rather than failing the table.
func packageNCSL(pkg string) int {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return 0
	}
	dir := filepath.Join(filepath.Dir(filepath.Dir(self)), pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	total := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || name == "snapshot.go" {
			continue
		}
		total += ncslFile(filepath.Join(dir, name))
	}
	return total
}

// ncslFile counts the non-blank, non-comment lines of one Go file. Block
// comments are tracked across lines; a line that carries code before a
// trailing comment counts.
func ncslFile(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	count := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if idx := strings.Index(line, "*/"); idx >= 0 {
				line = strings.TrimSpace(line[idx+2:])
				inBlock = false
			} else {
				continue
			}
		}
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		if idx := strings.Index(line, "/*"); idx >= 0 && !strings.Contains(line[:idx], "\"") {
			before := strings.TrimSpace(line[:idx])
			if !strings.Contains(line[idx:], "*/") {
				inBlock = true
			}
			if before == "" {
				continue
			}
		}
		count++
	}
	return count
}
