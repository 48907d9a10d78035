package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestE2EFrozenBoot boots the real binary in its default mode — no
// -ingest — and pins what "frozen" means now that there is one serving
// path: the node is ready when it listens, answers /api/query like an
// ingesting node seeded with the same corpus (byte for byte with the
// -use selection off), refuses writes with 404, and refuses to start
// over a corpus the refresh threshold rejects.
func TestE2EFrozenBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real binaries; skipped in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	serverBin := filepath.Join(t.TempDir(), "indice-server")
	if msg, err := exec.Command(goBin, "build", "-o", serverBin, "indice/cmd/indice-server").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, msg)
	}

	// startRole returns once /api/ready answers 200: the first request a
	// frozen node ever sees finds it published.
	frozen := startRole(t, serverBin, "/api/ready", "-n", "1500", "-use", "")
	ingesting := startRole(t, serverBin, "/api/ready", "-ingest", "-n", "1500")

	const q = "/api/query?preset=pa&by=district"
	code, body := httpGet(t, "http://"+frozen.addr+q)
	if code != http.StatusOK {
		t.Fatalf("frozen %s = %d: %s", q, code, body)
	}
	var ans struct {
		Epoch     uint64          `json:"epoch"`
		StoreRows int             `json:"store_rows"`
		Plan      json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatalf("frozen answer: %v\n%s", err, body)
	}
	if ans.Epoch < 1 || ans.StoreRows != 1500 || len(ans.Plan) == 0 {
		t.Fatalf("frozen answer has epoch %d, store_rows %d, plan %q", ans.Epoch, ans.StoreRows, ans.Plan)
	}
	if code, want := httpGet(t, "http://"+ingesting.addr+q); code != http.StatusOK || body != want {
		t.Fatalf("the frozen node's answer differs from the ingesting node's (%d):\n%s\n%s", code, body, want)
	}

	// The store routes answer on both; only the write is refused.
	if code, body := httpGet(t, "http://"+frozen.addr+"/api/store"); code != http.StatusOK {
		t.Fatalf("frozen /api/store = %d: %s", code, body)
	}
	record := []byte(`{"certificate_id":"EPC-X1","eph":120}`)
	for _, tt := range []struct {
		addr string
		want int
	}{{frozen.addr, http.StatusNotFound}, {ingesting.addr, http.StatusOK}} {
		resp, err := http.Post("http://"+tt.addr+"/api/ingest", "application/json", bytes.NewReader(record))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tt.want {
			t.Fatalf("POST /api/ingest on %s = %d, want %d", tt.addr, resp.StatusCode, tt.want)
		}
	}

	// Ten certificates are below the refresh threshold: no publication, so
	// nothing to serve frozen.
	var stderr bytes.Buffer
	small := exec.Command(serverBin, "-n", "10", "-addr", "127.0.0.1:0")
	small.Stderr = &stderr
	var exit *exec.ExitError
	if err := small.Run(); !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("-n 10 without -ingest: err = %v, want a non-zero exit\n%s", err, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "below refresh threshold") || !strings.Contains(msg, "need 50") {
		t.Fatalf("-n 10 exit message does not name the row threshold:\n%s", msg)
	}
}
