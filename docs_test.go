package indice

import (
	"bytes"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"indice/internal/obs"
	_ "indice/internal/server" // links every instrumented package, whose init registers its families
)

// lazyFamilies get their first series from the first request or span, so
// a process that served nothing may or may not hold them.
var lazyFamilies = map[string]bool{
	"indice_http_requests_total":  true,
	"indice_http_request_seconds": true,
	"indice_stage_seconds":        true,
}

// TestObservabilityDocListsTheRegistry holds docs/observability.md's
// metric inventory equal to what a node registers: every family in
// obs.Default has a table row and every row names a registered family.
func TestObservabilityDocListsTheRegistry(t *testing.T) {
	var expo bytes.Buffer
	if err := obs.Default.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, line := range strings.Split(expo.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			registered[f[2]] = true
		}
	}

	doc, err := os.ReadFile("docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	// The first cell of an inventory row names its families in backticks,
	// labels in braces: `a_x_total{mode=...}` / `_y_total`. A name that
	// starts with an underscore is shorthand for the registered family
	// that ends with it and shares the longest prefix with the row's
	// first name.
	name := regexp.MustCompile("`([a-z0-9_]+)(?:\\{[^`]*\\})?`")
	documented := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "| `indice_") {
			continue
		}
		cell, _, _ := strings.Cut(line[2:], " | ")
		first := ""
		for _, m := range name.FindAllStringSubmatch(cell, -1) {
			n := m[1]
			if !strings.HasPrefix(n, "_") {
				first = n
				documented[n] = true
				continue
			}
			best, bestShared := "", -1
			for r := range registered {
				if !strings.HasSuffix(r, n) {
					continue
				}
				shared := 0
				for shared < len(r) && shared < len(first) && r[shared] == first[shared] {
					shared++
				}
				if shared > bestShared || (shared == bestShared && r < best) {
					best, bestShared = r, shared
				}
			}
			if best == "" {
				t.Errorf("docs/observability.md: no registered family ends with %s (row of %s)", n, first)
				continue
			}
			documented[best] = true
		}
	}

	var missing, stale []string
	for r := range registered {
		if !documented[r] && !lazyFamilies[r] {
			missing = append(missing, r)
		}
	}
	for d := range documented {
		if !registered[d] && !lazyFamilies[d] {
			stale = append(stale, d)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, m := range missing {
		t.Errorf("registered but not in docs/observability.md: %s", m)
	}
	for _, s := range stale {
		t.Errorf("in docs/observability.md but not registered: %s", s)
	}
}
