package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"
)

// numClients is the closed-loop client count of every workload: one
// connection each, never more than the host's two cores.
const numClients = 2

// client is one closed-loop caller holding one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do issues one request and reads the whole answer. The duration runs
// from request start to the last body byte. The returned body is only
// valid until the next call.
func (c *client) do(method, path, ctype string, body []byte) (status int, answer []byte, took time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	took = time.Since(start)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, took, err
	}
	return resp.StatusCode, c.buf.Bytes(), took, nil
}

func (c *client) get(path string) (int, []byte, time.Duration, error) {
	return c.do(http.MethodGet, path, "", nil)
}

func (c *client) post(path, ctype string, body []byte) (int, []byte, time.Duration, error) {
	return c.do(http.MethodPost, path, ctype, body)
}

// mustOK performs an unmeasured control request and fails on anything
// but 200.
func (c *client) mustOK(method, path, ctype string, body []byte) ([]byte, time.Duration, error) {
	status, answer, took, err := c.do(method, path, ctype, body)
	if err != nil {
		return nil, took, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != http.StatusOK {
		return nil, took, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(answer))
	}
	return answer, took, nil
}

// samples collects the latencies and answer sizes of one class, keyed
// by group for the composite median.
type samples struct {
	ms    map[int][]float64
	bytes float64
	n     int
}

func (s *samples) add(group int, took time.Duration, size int) {
	if s.ms == nil {
		s.ms = make(map[int][]float64)
	}
	s.ms[group] = append(s.ms[group], float64(took)/float64(time.Millisecond))
	s.bytes += float64(size)
	s.n++
}

func (s *samples) merge(o *samples) {
	for g, v := range o.ms {
		if s.ms == nil {
			s.ms = make(map[int][]float64)
		}
		s.ms[g] = append(s.ms[g], v...)
	}
	s.bytes += o.bytes
	s.n += o.n
}

func (s *samples) all() []float64 {
	var out []float64
	for _, v := range s.ms {
		out = append(out, v...)
	}
	return out
}

func (s *samples) meanBytes() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.bytes / float64(s.n)
}

// quantile returns the q-quantile of vals by linear interpolation
// between order statistics (NaN for an empty slice). vals is not
// modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// p50 is the class's median latency. A class mixes request groups of
// very different cost (a 416 KB page beside an 83 KB one; a 5 %
// selective indexed predicate beside a 60 % scan), so the plain median
// would sit on the edge between two modes and jump between runs. The
// composite is the weighted mean of the per-group medians; weights
// default to equal. It errors when a group has no sample.
func (s *samples) p50(weights map[int]float64) (float64, error) {
	if len(s.ms) == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if weights == nil {
		weights = make(map[int]float64, len(s.ms))
		for g := range s.ms {
			weights[g] = 1
		}
	}
	var sum, wsum float64
	for g, w := range weights {
		v := s.ms[g]
		if len(v) == 0 {
			return 0, fmt.Errorf("no samples for group %d", g)
		}
		sum += w * quantile(v, 0.5)
		wsum += w
	}
	return sum / wsum, nil
}

// coldWeights are the cold stream's shape shares as composite weights.
func coldWeights() map[int]float64 {
	w := make(map[int]float64, numShapes)
	for i, s := range shapeShares {
		w[i] = s
	}
	return w
}
