package main

import (
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestRoleFlags pins which set flags a replica and a coordinator report
// as ignored, and that the table names only flags main registers.
func TestRoleFlags(t *testing.T) {
	for _, tc := range []struct {
		role string
		set  []string
		want []string
	}{
		// How the benchmark harness starts a replica.
		{"replica", []string{"leader", "refresh-interval", "role", "sync-interval"}, []string{"-refresh-interval"}},
		{"replica", []string{"addr", "data-dir", "leader", "pprof", "role"}, nil},
		{"replica", []string{"epcs", "fsync", "kmax", "leader", "n", "replicas", "shards"},
			[]string{"-epcs", "-fsync", "-kmax", "-n", "-replicas", "-shards"}},
		{"coordinator", []string{"hedge-after", "replica-timeout", "replicas", "role"}, nil},
		{"coordinator", []string{"data-dir", "ingest", "leader", "replicas", "sync-interval", "validate"},
			[]string{"-data-dir", "-ingest", "-leader", "-sync-interval", "-validate"}},
		{"leader", []string{"leader", "replicas", "shards"}, nil},
		{"", []string{"hedge-after", "n"}, nil},
	} {
		if got := unreadFlags(tc.role, tc.set); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("role %q, set %v: unread %v, want %v", tc.role, tc.set, got, tc.want)
		}
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`flag\.\w+\("([a-z-]+)"`).FindAllSubmatch(src, -1) {
		registered[string(m[1])] = true
	}
	for _, name := range []string{"role", "addr", "pprof"} {
		if !registered[name] {
			t.Errorf("every role reads -%s, which main does not register", name)
		}
	}
	for role, reads := range roleFlags {
		for _, name := range reads {
			if !registered[name] {
				t.Errorf("role %s reads -%s, which main does not register", role, name)
			}
		}
	}
}
