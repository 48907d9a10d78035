package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer: name is the
// layer call ("server.handler", "store.queryagg", ...), Parent the probe
// it belongs to, Req the ordinal of the request within that probe.
// Spans inside the program are a later change (ROADMAP item 2); these
// are recorded from outside, around public functions and sockets.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Class  class  `json:"class,omitempty"`
	Group  int    `json:"group"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced run in memory; they are written
// out when the run ends. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a probe span; close ends it.
func (t *tracer) open(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) close(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// add records a finished call that started at start and took d.
func (t *tracer) add(parent int, name string, cl class, group, req int, start time.Time, d time.Duration) {
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Class: cl, Group: group,
		Start: s, End: s + int64(d)})
}

// call times fn as one span.
func (t *tracer) call(parent int, name string, cl class, group, req int, fn func()) {
	start := time.Now()
	fn()
	t.add(parent, name, cl, group, req, start, time.Since(start))
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans reads a span file back.
func readSpans(r io.Reader) ([]span, error) {
	var out []span
	dec := json.NewDecoder(r)
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

// collect gathers the spans of one layer call and class as samples,
// grouped as the composite median needs them.
func collect(spans []span, name string, cl class) *samples {
	s := &samples{}
	for _, sp := range spans {
		if sp.Name == name && sp.Class == cl {
			s.add(sp.Group, time.Duration(sp.End-sp.Start), 0)
		}
	}
	return s
}

// classWeights are the composite weights of a class: the shape shares
// for the cold classes, equal weights otherwise.
func classWeights(cl class) map[int]float64 {
	if cl == statsMiss || cl == rowsMiss {
		return coldWeights()
	}
	return nil
}

// layerP50 is the composite median, in ms, of one layer call on one
// class; ok is false when the span set holds none.
func layerP50(spans []span, name string, cl class) (float64, bool) {
	v, err := collect(spans, name, cl).p50(classWeights(cl))
	return v, err == nil
}

// innerCall names the call below the handler that does a class's real
// work; classes served from the result cache have none.
var innerCall = map[class]string{
	statsMiss: "store.queryagg",
	rowsMiss:  "store.query",
	pageClass: "core.dashboard",
	mapClass:  "dashboard.rendermap",
}

// budget is one class's latency account, in ms, each line a composite
// median over its own requests. Client is what one connection to the
// real binary observed. Socket is the in-process server behind its
// socket and Handler its ServeHTTP called directly, on alternating
// requests of one stream, so Socket - Handler is what arriving over a
// socket adds in process: transport, net/http, and the wake-ups of
// goroutines that were waiting. Floor and FloorIn are the transport part
// alone, a canned answer of the class's size written back by another
// process and by this one; the real server is another process, so HTTP =
// Socket - Handler - FloorIn + Floor. Parse and Inner are direct calls
// on streams of their own, ServerSelf = Handler - Parse - Inner, and
// Reconcile = (HTTP + ServerSelf + Parse + Inner) / Client says how much
// of the real client's time the account explains.
type budget struct {
	Class      class
	Client     float64
	Socket     float64
	HTTP       float64
	Floor      float64
	FloorIn    float64
	Handler    float64
	Parse      float64
	Inner      float64
	ServerSelf float64
	Reconcile  float64
}

func budgetOf(spans []span, cl class) (budget, error) {
	b := budget{Class: cl}
	need := func(dst *float64, name string) error {
		v, ok := layerP50(spans, name, cl)
		if !ok {
			return fmt.Errorf("%s: no %s spans", cl, name)
		}
		*dst = v
		return nil
	}
	type line struct {
		dst  *float64
		name string
	}
	lines := []line{{&b.Client, "client.real"}, {&b.Socket, "client.inproc"}, {&b.Floor, "http.canned"},
		{&b.FloorIn, "http.canned_inproc"}, {&b.Handler, "server.handler"}}
	if cl == statsMiss || cl == rowsMiss {
		lines = append(lines, line{&b.Parse, "query.parse"})
	}
	if name := innerCall[cl]; name != "" {
		lines = append(lines, line{&b.Inner, name})
	}
	for _, l := range lines {
		if err := need(l.dst, l.name); err != nil {
			return b, err
		}
	}
	b.HTTP = b.Socket - b.Handler - b.FloorIn + b.Floor
	b.ServerSelf = b.Handler - b.Parse - b.Inner
	b.Reconcile = (b.HTTP + b.ServerSelf + b.Parse + b.Inner) / b.Client
	return b, nil
}

// budgetClasses are the classes the budget table covers.
var budgetClasses = []class{statsHit, rowsHit, statsMiss, rowsMiss, pageClass, mapClass}

func printBudgets(w io.Writer, budgets []budget) {
	fmt.Fprintf(w, "\n%-11s %10s | %10s %11s %11s %11s | %10s %10s | %10s\n",
		"class", "client_ms", "http.self", "server.self", "query.parse", "store|core", "sum", "reconcile", "http.floor")
	for _, b := range budgets {
		fmt.Fprintf(w, "%-11s %10.3f | %10.3f %11.3f %11.3f %11.3f | %10.3f %10.3f | %10.3f\n",
			b.Class, b.Client, b.HTTP, b.ServerSelf, b.Parse, b.Inner, b.HTTP+b.Handler, b.Reconcile, b.Floor)
	}
}

// printMetrics lists metrics by name for a reader.
func printMetrics(w io.Writer, m map[string]float64, units map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-44s %14.4f %s\n", k, m[k], units[k])
	}
}
