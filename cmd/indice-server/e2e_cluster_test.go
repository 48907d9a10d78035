package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestE2EClusterReplicaKill is the full scale-out smoke on real
// processes: a leader ingesting 50k rows streamed over HTTP, two
// replicas pulling segments, a coordinator scatter-gathering over them —
// and kill -9 on one replica mid-load. The coordinator must keep
// answering (degrading to the survivor, counted on /metrics) and, once
// the stream lands, answer exactly the leader's counts. The replicas run
// no analysis: ready without a refresh, they send the dashboards to the
// leader.
func TestE2EClusterReplicaKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real binaries; skipped in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}

	bins := t.TempDir()
	serverBin := filepath.Join(bins, "indice-server")
	epcgenBin := filepath.Join(bins, "epcgen")
	for pkg, out := range map[string]string{
		"indice/cmd/indice-server": serverBin,
		"indice/cmd/epcgen":        epcgenBin,
	} {
		cmd := exec.Command(goBin, "build", "-o", out, pkg)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, msg)
		}
	}

	// Leader: live mode, empty, manual refresh only (the analysis
	// pipeline would otherwise compete with replication for the CPU).
	leader := startRole(t, serverBin, "/api/store",
		"-role", "leader", "-n", "0", "-shards", "4", "-refresh-interval", "0")
	leaderURL := "http://" + leader.addr

	rep1 := startRole(t, serverBin, "/api/health",
		"-role", "replica", "-leader", leaderURL, "-sync-interval", "100ms", "-refresh-interval", "0")
	rep2 := startRole(t, serverBin, "/api/health",
		"-role", "replica", "-leader", leaderURL, "-sync-interval", "100ms", "-refresh-interval", "0")

	coord := startRole(t, serverBin, "/api/health",
		"-role", "coordinator",
		"-replicas", "http://"+rep1.addr+",http://"+rep2.addr,
		"-hedge-after", "100ms")
	coordURL := "http://" + coord.addr

	// Stream 50k rows at the leader in 1k batches, paced so the kill
	// lands mid-load.
	gen := exec.Command(epcgenBin,
		"-n", "50000", "-stream", leaderURL+"/api/ingest",
		"-batch", "1000", "-stream-interval", "50ms")
	var genOut, genErr bytes.Buffer
	gen.Stdout, gen.Stderr = &genOut, &genErr
	if err := gen.Start(); err != nil {
		t.Fatal(err)
	}
	genDone := make(chan error, 1)
	go func() { genDone <- gen.Wait() }()
	defer func() { _ = gen.Process.Kill() }()

	// Wait until the coordinator can actually serve, and until both
	// replicas have synced far enough to take a leg of the same query —
	// /api/ready turns 200 on the first synced replica, and a kill of one
	// that is not yet a participant would never reach a fan-out. Each probe
	// is a fresh cache shape (limits above the burst's), so it reflects the
	// coordinator's current participant set rather than a cached answer.
	waitFor(t, func() bool {
		code, _ := httpGet(t, coordURL+"/api/ready")
		return code == http.StatusOK
	}, 30*time.Second, "coordinator never became ready")
	probe := 1000
	waitFor(t, func() bool {
		probe++
		code, body := httpGet(t, fmt.Sprintf("%s/api/query?attrs=eph&limit=%d", coordURL, probe))
		var resp struct {
			Cluster *struct {
				Replicas int `json:"replicas"`
			} `json:"cluster"`
		}
		return code == http.StatusOK && json.Unmarshal([]byte(body), &resp) == nil &&
			resp.Cluster != nil && resp.Cluster.Replicas == 2
	}, 30*time.Second, "the coordinator never fanned a query out over both replicas")

	// A replica runs no analysis: it is ready on its first sync, with no
	// refresh behind it.
	for _, rep := range []*roleProc{rep1, rep2} {
		waitFor(t, func() bool {
			code, _ := httpGet(t, "http://"+rep.addr+"/api/ready")
			return code == http.StatusOK
		}, 30*time.Second, "replica "+rep.addr+" never became ready")
		_, body := httpGet(t, "http://"+rep.addr+"/api/health")
		var health struct {
			Mode      string `json:"mode"`
			Refreshes uint64 `json:"refreshes"`
		}
		if err := json.Unmarshal([]byte(body), &health); err != nil || health.Mode != "replica" || health.Refreshes != 0 {
			t.Fatalf("ready replica %s /api/health: %s (%v)", rep.addr, body, err)
		}
	}

	if err := rep2.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill -9 replica 2: %v", err)
	}
	_ = rep2.cmd.Wait()

	// Burst queries immediately: until the status poller notices the
	// kill, fan-outs still route a leg to the dead replica, and each must
	// fail over to the survivor (counted as replica_down / degraded)
	// instead of erroring. Distinct limits make every burst query a fresh
	// cache shape, so each one actually fans out instead of riding the
	// result cache or an in-flight twin.
	for i := 0; i < 20; i++ {
		url := fmt.Sprintf("%s/api/query?attrs=eph&limit=%d", coordURL, i+1)
		if code, body := httpGet(t, url); code != http.StatusOK {
			t.Fatalf("query %d right after kill = %d: %s", i, code, body)
		}
	}

	// Through the kill window and the rest of the load, the coordinator
	// must answer every query with an internally consistent result: one
	// epoch, matched == store_rows for the match-all query.
	queries, degradedSeen := 0, false
	for done := false; !done; {
		select {
		case err := <-genDone:
			if err != nil {
				t.Fatalf("epcgen stream: %v\nstdout: %s\nstderr: %s", err, genOut.String(), genErr.String())
			}
			done = true
		case <-time.After(200 * time.Millisecond):
		}
		code, body := httpGet(t, coordURL+"/api/query?attrs=eph")
		if code != http.StatusOK {
			t.Fatalf("coordinator query during replica outage = %d: %s", code, body)
		}
		var resp struct {
			Matched   int `json:"matched"`
			StoreRows int `json:"store_rows"`
			Cluster   *struct {
				Replicas int `json:"replicas"`
				Degraded int `json:"degraded"`
			} `json:"cluster"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("coordinator query JSON: %v\n%s", err, body)
		}
		if resp.Matched != resp.StoreRows {
			t.Fatalf("epoch-mixed answer: matched %d of store_rows %d", resp.Matched, resp.StoreRows)
		}
		if resp.Cluster != nil && resp.Cluster.Degraded > 0 {
			degradedSeen = true
		}
		queries++
	}
	if queries == 0 {
		t.Fatal("no queries issued during the load window")
	}

	// Let the surviving replica catch up to all 50k rows, then quiesce.
	waitFor(t, func() bool {
		_, body := httpGet(t, coordURL+"/api/query?attrs=eph")
		var resp struct {
			StoreRows int `json:"store_rows"`
		}
		return json.Unmarshal([]byte(body), &resp) == nil && resp.StoreRows == 50000
	}, 60*time.Second, "coordinator never saw all 50000 rows")

	// The coordinator's totals must equal the leader's own, query for
	// query. Publish the leader's analysis snapshot first — its
	// /api/query serves from the published epoch.
	if code, body := postEmptyBody(t, leaderURL+"/api/refresh"); code != http.StatusOK {
		t.Fatalf("leader refresh: %d %s", code, body)
	}
	for _, q := range []string{
		"/api/query?attrs=eph",
		"/api/query?attrs=eph&by=energy_class",
		"/api/query?preset=pa&by=district",
	} {
		_, leaderBody := httpGet(t, leaderURL+q)
		_, coordBody := httpGet(t, coordURL+q)
		var lr, cr struct {
			Matched   int    `json:"matched"`
			StoreRows int    `json:"store_rows"`
			Epoch     uint64 `json:"epoch"`
			Groups    []struct {
				Value string `json:"value"`
				Count int    `json:"count"`
			} `json:"groups"`
		}
		if err := json.Unmarshal([]byte(leaderBody), &lr); err != nil {
			t.Fatalf("leader %s: %v\n%s", q, err, leaderBody)
		}
		if err := json.Unmarshal([]byte(coordBody), &cr); err != nil {
			t.Fatalf("coordinator %s: %v\n%s", q, err, coordBody)
		}
		if cr.Matched != lr.Matched || cr.StoreRows != lr.StoreRows {
			t.Fatalf("%s: coordinator %d/%d, leader %d/%d", q, cr.Matched, cr.StoreRows, lr.Matched, lr.StoreRows)
		}
		if len(cr.Groups) != len(lr.Groups) {
			t.Fatalf("%s: coordinator %d groups, leader %d", q, len(cr.Groups), len(lr.Groups))
		}
		for i := range cr.Groups {
			if cr.Groups[i] != lr.Groups[i] {
				t.Fatalf("%s: group[%d] = %+v, leader %+v", q, i, cr.Groups[i], lr.Groups[i])
			}
		}

		// Rank statistics survive the scatter-gather merge: the
		// coordinator's quartiles are non-zero and — sketch merges being
		// exact — equal the leader's own, group for group.
		type quarts struct {
			Q1     float64 `json:"q1"`
			Median float64 `json:"median"`
			Q3     float64 `json:"q3"`
			P90    float64 `json:"p90"`
		}
		var lq, cq struct {
			Stats []struct {
				Attr   string  `json:"attr"`
				Count  int     `json:"count"`
				Q1     float64 `json:"q1"`
				Median float64 `json:"median"`
				Q3     float64 `json:"q3"`
			} `json:"stats"`
			Groups []struct {
				Value     string            `json:"value"`
				Quartiles map[string]quarts `json:"quartiles"`
			} `json:"groups"`
		}
		if err := json.Unmarshal([]byte(leaderBody), &lq); err != nil {
			t.Fatalf("leader %s: %v", q, err)
		}
		if err := json.Unmarshal([]byte(coordBody), &cq); err != nil {
			t.Fatalf("coordinator %s: %v", q, err)
		}
		for i, cs := range cq.Stats {
			ls := lq.Stats[i]
			if cs.Count > 0 && cs.Median == 0 && ls.Median != 0 {
				t.Fatalf("%s: merged stats[%s] quartiles read 0: %+v", q, cs.Attr, cs)
			}
			if cs.Q1 != ls.Q1 || cs.Median != ls.Median || cs.Q3 != ls.Q3 {
				t.Fatalf("%s: stats[%s] quartiles [%v %v %v], leader [%v %v %v]",
					q, cs.Attr, cs.Q1, cs.Median, cs.Q3, ls.Q1, ls.Median, ls.Q3)
			}
		}
		if len(cq.Groups) > 0 {
			nonZero := 0
			for i, cg := range cq.Groups {
				lg := lq.Groups[i]
				for attr, qs := range cg.Quartiles {
					if qs.Median != 0 {
						nonZero++
					}
					if qs != lg.Quartiles[attr] {
						t.Fatalf("%s: group %q quartiles[%s] = %+v, leader %+v",
							q, cg.Value, attr, qs, lg.Quartiles[attr])
					}
				}
			}
			if nonZero == 0 {
				t.Fatalf("%s: no merged group reported non-zero quartiles", q)
			}
		}
	}

	// The survivor sends the dashboards to the leader: a 307 to the same
	// path there, and following it reads the leader's bytes.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := noFollow.Get("http://" + rep1.addr + "/dashboard/citizen")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if loc := resp.Header.Get("Location"); resp.StatusCode != http.StatusTemporaryRedirect || loc != leaderURL+"/dashboard/citizen" {
		t.Fatalf("replica /dashboard/citizen = %d to %q, want 307 to the leader", resp.StatusCode, loc)
	}
	leaderCode, leaderPage := httpGet(t, leaderURL+"/dashboard/citizen")
	replicaCode, replicaPage := httpGet(t, "http://"+rep1.addr+"/dashboard/citizen")
	if leaderCode != http.StatusOK || replicaCode != http.StatusOK || replicaPage != leaderPage {
		t.Fatalf("dashboard through the replica: %d (%d bytes), leader %d (%d bytes)",
			replicaCode, len(replicaPage), leaderCode, len(leaderPage))
	}

	// The kill must be visible on the coordinator's metrics: legs failed
	// over (replica_down) and at least one degraded answer.
	_, metrics := httpGet(t, coordURL+"/metrics")
	down := metricValue(t, metrics, "indice_coord_replica_down_total")
	degraded := metricValue(t, metrics, "indice_coord_degraded_total")
	if down == 0 {
		t.Fatalf("indice_coord_replica_down_total = 0 after kill -9\n%s", metrics)
	}
	if degraded == 0 && !degradedSeen {
		t.Fatal("no degraded answer observed despite a dead replica")
	}

	// The survivor's replication metrics exist and count real syncs.
	_, repMetrics := httpGet(t, "http://"+rep1.addr+"/metrics")
	if metricValue(t, repMetrics, "indice_repl_applied_rows_total") < 50000 {
		t.Fatalf("survivor applied_rows < 50000\n%s", repMetrics)
	}
}

type roleProc struct {
	cmd  *exec.Cmd
	addr string
}

// startRole launches one indice-server with extra flags on an ephemeral
// port and waits for healthPath to answer 200.
func startRole(t *testing.T, bin, healthPath string, extra ...string) *roleProc {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	addrCh := make(chan string, 1)
	var logMu sync.Mutex
	var logs bytes.Buffer
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logMu.Lock()
			logs.WriteString(line + "\n")
			logMu.Unlock()
			if rest, ok := strings.CutPrefix(line, "serving INDICE on "); ok {
				select {
				case addrCh <- strings.TrimSpace(rest):
				default:
				}
			}
		}
	}()
	dump := func() string {
		logMu.Lock()
		defer logMu.Unlock()
		return logs.String()
	}
	select {
	case addr := <-addrCh:
		deadline := time.Now().Add(15 * time.Second)
		for {
			resp, err := http.Get("http://" + addr + healthPath)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return &roleProc{cmd: cmd, addr: addr}
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("server at %s never answered %s\n%s", addr, healthPath, dump())
			}
			time.Sleep(50 * time.Millisecond)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("server never announced its address (args %v)\n%s", extra, dump())
	}
	panic("unreachable")
}

func waitFor(t *testing.T, cond func() bool, timeout time.Duration, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func postEmptyBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// metricValue pulls one counter's value out of a Prometheus exposition.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s value %q: %v", name, m[1], err)
	}
	return v
}
