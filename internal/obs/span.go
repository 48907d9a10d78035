package obs

import (
	"context"
	"time"
)

// spanCtxKey carries the active span through a context so nested stages
// record dotted paths ("refresh.preprocess") without threading names.
type spanCtxKey struct{}

// Span measures one named stage. End records the elapsed time into the
// registry's per-stage histogram (indice_stage_seconds{stage=...}) and, if
// the duration crosses the registry's slow-op threshold, emits a structured
// slow-op log line. A nil *Span is a valid no-op (returned when the
// registry is disabled), so callers never need to branch.
type Span struct {
	reg   *Registry
	name  string
	start time.Time
}

// StartSpan starts a stage span on the Default registry.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return Default.StartSpan(ctx, name)
}

// StartSpan starts a stage span. If ctx already carries a span, the new
// span's name is parent.child, giving per-stage histograms a stable dotted
// taxonomy. The returned context carries the new span.
func (r *Registry) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !r.enabled.Load() {
		return ctx, nil
	}
	if parent, ok := ctx.Value(spanCtxKey{}).(*Span); ok && parent != nil {
		name = parent.name + "." + name
	}
	s := &Span{reg: r, name: name, start: time.Now()}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// End finishes the span: the duration lands in the stage histogram and, if
// it meets the slow-op threshold, in the log. Safe on a nil receiver.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.reg.Histogram("indice_stage_seconds",
		"Duration of instrumented internal stages, labelled by dotted stage name.",
		"stage", s.name).ObserveDuration(d)
	if th := time.Duration(s.reg.slowNanos.Load()); th > 0 && d >= th {
		s.reg.slowLogger().Printf("slow-op stage=%s took=%s threshold=%s", s.name, d, th)
	}
}
