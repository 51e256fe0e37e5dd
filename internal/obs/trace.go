package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Trace process IDs: wall-clock spans (advisor stages) and sim-clock
// events (workload execution) render as two separate processes in the
// Chrome trace viewer, because their timelines are not comparable.
const (
	// WallPID groups wall-clock spans.
	WallPID = 1
	// SimPID groups simulated-time events.
	SimPID = 2
)

// DefaultMaxEvents bounds a tracer's buffered events. Beyond the cap
// new events are counted as dropped rather than recorded, so a huge
// sweep cannot balloon memory or produce an unloadable trace file.
const DefaultMaxEvents = 250_000

// event is one Chrome trace_event entry. Ts and Dur are microseconds,
// per the trace_event format.
type event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer records completed spans and writes them as Chrome trace_event
// JSON loadable in about:tracing or Perfetto. It records two kinds of
// events: wall-clock spans (Begin/End, measured against a monotonic
// wall clock) and simulated-time events (SimEvent, placed on the
// harness's deterministic sim-millisecond timeline). A nil *Tracer is
// a valid no-op sink.
type Tracer struct {
	mu      sync.Mutex
	start   time.Time
	events  []event
	max     int
	dropped int64
	threads map[int]string // tid -> thread name, per pid+tid on write
}

// NewTracer returns an empty tracer with the default event cap.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now(), max: DefaultMaxEvents, threads: map[int]string{}}
}

// Span is one in-flight wall-clock span. End records it.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	tid   int
	begin time.Duration
	args  map[string]any
}

// Begin opens a wall-clock span on the tracer's main thread. Spans on
// one goroutine nest by containment in the viewer; End must be called
// on the same goroutine flow that called Begin.
func (t *Tracer) Begin(name, cat string) *Span {
	return t.BeginTid(name, cat, 1)
}

// BeginTid opens a wall-clock span on an explicit thread lane.
func (t *Tracer) BeginTid(name, cat string, tid int) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, cat: cat, tid: tid, begin: time.Since(t.start)}
}

// SetArg attaches one key/value to the span, returned for chaining.
func (s *Span) SetArg(key string, value any) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = map[string]any{}
	}
	s.args[key] = value
	return s
}

// End closes the span, records it, and returns its duration exactly as
// recorded (whole microseconds). A nil span records nothing and
// returns 0.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	dur := (time.Since(s.t.start) - s.begin).Truncate(time.Microsecond)
	s.t.add(event{
		Name: s.name, Cat: s.cat, Ph: "X", Pid: WallPID, Tid: s.tid,
		Ts: float64(s.begin.Microseconds()), Dur: float64(dur.Microseconds()),
		Args: s.args,
	})
	return dur
}

// SimEvent records one completed event on the simulated timeline:
// start and duration are in simulated milliseconds (converted to the
// trace format's microseconds). tid separates concurrent sim
// timelines — e.g. one lane per experiment cell.
func (t *Tracer) SimEvent(name, cat string, tid int, startMillis, durMillis float64, args map[string]any) {
	if t == nil {
		return
	}
	t.add(event{
		Name: name, Cat: cat, Ph: "X", Pid: SimPID, Tid: tid,
		Ts: startMillis * 1000, Dur: durMillis * 1000, Args: args,
	})
}

// NameThread labels a sim-timeline lane in the viewer.
func (t *Tracer) NameThread(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[tid] = name
	t.mu.Unlock()
}

func (t *Tracer) add(e event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= t.max {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// TraceEvent is the exported view of one recorded trace event, used by
// consumers that replay a tracer incrementally (the nosed streaming
// endpoint) rather than writing a whole Chrome trace file. Ts and Dur
// are microseconds. Wall indicates the wall-clock process (advisor
// spans); otherwise the event is on the simulated timeline.
type TraceEvent struct {
	// Name is the span or event name.
	Name string `json:"name"`
	// Cat is the event category.
	Cat string `json:"cat,omitempty"`
	// Tid is the thread lane.
	Tid int `json:"tid"`
	// Ts is the start timestamp in microseconds.
	Ts float64 `json:"ts"`
	// Dur is the duration in microseconds.
	Dur float64 `json:"dur,omitempty"`
	// Wall is true for wall-clock spans, false for sim-clock events.
	Wall bool `json:"wall"`
	// Args carries the span's attached key/values.
	Args map[string]any `json:"args,omitempty"`
}

// EventsSince returns the events recorded at index since or later, plus
// the next cursor (pass it back to resume where this call stopped).
// Events are returned in record order, so replaying from cursor zero
// yields the full history; a nil tracer always returns an empty slice.
func (t *Tracer) EventsSince(since int) ([]TraceEvent, int) {
	if t == nil {
		return nil, since
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if since < 0 {
		since = 0
	}
	if since >= len(t.events) {
		return nil, len(t.events)
	}
	out := make([]TraceEvent, 0, len(t.events)-since)
	for _, e := range t.events[since:] {
		out = append(out, TraceEvent{
			Name: e.Name, Cat: e.Cat, Tid: e.Tid,
			Ts: e.Ts, Dur: e.Dur, Wall: e.Pid == WallPID, Args: e.Args,
		})
	}
	return out, len(t.events)
}

// Dropped returns the number of events discarded over the cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// chromeTrace is the trace_event file envelope.
type chromeTrace struct {
	TraceEvents     []event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// WriteTrace writes the Chrome trace_event JSON. Metadata events name the
// wall and sim processes and any labeled sim lanes. A nil tracer
// writes a valid empty trace.
func (t *Tracer) WriteTrace(w io.Writer) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []event{
		{Name: "process_name", Ph: "M", Pid: WallPID, Tid: 0,
			Args: map[string]any{"name": "advisor (wall clock)"}},
		{Name: "process_name", Ph: "M", Pid: SimPID, Tid: 0,
			Args: map[string]any{"name": "execution (sim clock)"}},
	}}
	if t != nil {
		t.mu.Lock()
		for _, tid := range sortedTids(t.threads) {
			out.TraceEvents = append(out.TraceEvents, event{
				Name: "thread_name", Ph: "M", Pid: SimPID, Tid: tid,
				Args: map[string]any{"name": t.threads[tid]},
			})
		}
		out.TraceEvents = append(out.TraceEvents, t.events...)
		t.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// sortedTids returns the thread ids in ascending order for stable
// output.
func sortedTids(m map[int]string) []int {
	tids := make([]int, 0, len(m))
	for tid := range m {
		tids = append(tids, tid)
	}
	for i := 1; i < len(tids); i++ {
		for j := i; j > 0 && tids[j] < tids[j-1]; j-- {
			tids[j], tids[j-1] = tids[j-1], tids[j]
		}
	}
	return tids
}
