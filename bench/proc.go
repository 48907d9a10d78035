package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/indice-server from the checkout at root into
// dir and returns the binary's path.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "indice-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/indice-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/indice-server: %v\n%s", err, out)
	}
	return bin, nil
}

// findRoot locates the repository checkout: the directory whose go.mod
// declares module indice, looked for at the working directory and its
// parent (go run -C bench runs the benchmark from bench/).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module indice\n") {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no indice checkout at %s or its parent", wd)
}

// tail keeps the last lines a server wrote to standard error.
type tail struct {
	mu    sync.Mutex
	lines []string
}

func (t *tail) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 30 {
		t.lines = t.lines[len(t.lines)-30:]
	}
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// find returns the first kept line matching re.
func (t *tail) find(re *regexp.Regexp) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lines {
		if m := re.FindStringSubmatch(l); m != nil {
			return m
		}
	}
	return nil
}

// proc is one indice-server process.
type proc struct {
	name   string
	cmd    *exec.Cmd
	addr   string
	stderr tail
	exited chan struct{} // closed once Wait returned
}

var servingLine = regexp.MustCompile(`serving INDICE on (\S+)`)

// procs tracks every live server so that exit paths and SIGINT can kill
// them all.
var procs struct {
	mu   sync.Mutex
	live map[*proc]bool
}

// startProc launches the server binary bound to an ephemeral loopback
// port and waits for its "serving INDICE on" line.
func startProc(name, bin string, args ...string) (*proc, error) {
	return startProcUntil(servingLine, nil, name, bin, args...)
}

// startProcUntil launches the server, with env added to its
// environment, and returns once a stderr line matches until; p.addr is
// the line's first submatch.
func startProcUntil(until *regexp.Regexp, env []string, name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, exited: make(chan struct{})}
	p.cmd = exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	p.cmd.Env = append(os.Environ(), env...)
	p.cmd.Stdout = io.Discard
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	procs.mu.Lock()
	if procs.live == nil {
		procs.live = make(map[*proc]bool)
	}
	procs.live[p] = true
	procs.mu.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			p.stderr.add(line)
			if m := until.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		_ = p.cmd.Wait() // the exit status of a killed server carries nothing
		close(p.exited)
	}()
	select {
	case p.addr = <-addrCh:
		return p, nil
	case <-p.exited:
		p.forget()
		return nil, fmt.Errorf("%s exited before serving:\n%s", name, p.stderr.String())
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s printed no line matching %q within 60s:\n%s", name, until, p.stderr.String())
	}
}

func (p *proc) url() string { return "http://" + p.addr }

func (p *proc) forget() {
	procs.mu.Lock()
	delete(procs.live, p)
	procs.mu.Unlock()
}

// kill sends SIGKILL and waits for the process to be reaped.
func (p *proc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // already gone is fine
	<-p.exited
	p.forget()
}

// alive reports an error carrying the stderr tail once the process has
// exited.
func (p *proc) alive() error {
	select {
	case <-p.exited:
		return fmt.Errorf("%s died mid-run; last stderr lines:\n%s", p.name, p.stderr.String())
	default:
		return nil
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM line")
}

// killAll kills every tracked server; exit paths and the signal handler
// call it.
func killAll() {
	procs.mu.Lock()
	all := make([]*proc, 0, len(procs.live))
	for p := range procs.live {
		all = append(all, p)
	}
	procs.mu.Unlock()
	for _, p := range all {
		p.kill()
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
