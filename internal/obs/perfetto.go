package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TraceFile streams Events as Chrome trace-event JSON, the format
// Perfetto (https://ui.perfetto.dev) and chrome://tracing load directly.
// The output is line-oriented - one event object per line inside a JSON
// array - so tools can both decode the whole file as JSON and grep
// individual events. Each network writes under its own pid; each router
// is a thread, so the trace UI shows one swimlane per node. Cycles are
// reported as microseconds (1 cycle = 1us) for readable zoom levels.
//
// TraceFile serialises writes internally, so tracers of concurrently
// simulated networks may share one file; event order across networks is
// then scheduling-dependent, which trace viewers do not care about.
type TraceFile struct {
	mu     sync.Mutex
	w      io.Writer
	events int64
	opened bool
	closed bool
	err    error
}

// NewTraceFile starts a trace stream on w.
func NewTraceFile(w io.Writer) *TraceFile { return &TraceFile{w: w} }

// write emits one raw line, handling the array framing and comma rules.
// Callers hold mu.
func (f *TraceFile) write(line string) {
	if f.err != nil || f.closed {
		return
	}
	prefix := ",\n"
	if !f.opened {
		prefix = "[\n"
		f.opened = true
	}
	if _, err := io.WriteString(f.w, prefix+line); err != nil {
		f.err = err
	}
}

// Process registers a named process (one simulated network) and labels a
// thread per node, so the trace UI shows "node 12 (4,1)" swimlanes.
func (f *TraceFile) Process(pid int, name string, width, height int) {
	f.ProcessNodes(pid, name, width*height, func(n int) string {
		return fmt.Sprintf("%d (%d,%d)", n, n%width, n/width)
	})
}

// ProcessNodes registers a named process and labels a thread per node
// using the supplied naming function — typically a topo.Topology's
// NodeLabel, so non-mesh fabrics get fabric-native swimlane names.
func (f *TraceFile) ProcessNodes(pid int, name string, nodes int, label func(n int) string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.write(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, pid, name))
	for n := 0; n < nodes; n++ {
		f.write(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"node %s"}}`,
			pid, n, label(n)))
	}
}

// ProcessName labels a process without node threads; per-packet
// provenance tracks name their own swimlanes through Thread.
func (f *TraceFile) ProcessName(pid int, name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.write(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, pid, name))
}

// Thread labels one swimlane under pid.
func (f *TraceFile) Thread(pid, tid int, name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.write(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`, pid, tid, name))
}

// Slice emits a complete-duration event ("ph":"X") of dur cycles.
// argsJSON, when non-empty, must be a complete JSON object literal.
func (f *TraceFile) Slice(pid, tid int, name string, ts, dur int64, argsJSON string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	line := fmt.Sprintf(`{"name":%q,"cat":"prov","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d`, name, ts, dur, pid, tid)
	if argsJSON != "" {
		line += `,"args":` + argsJSON
	}
	f.write(line + "}")
}

// Flow emits one flow event: step is "s" (start), "t" (step) or "f"
// (end). Flow events bind to the duration slice enclosing ts on
// (pid, tid), which is why Tracer anchors lifecycle events as 1-cycle
// slices. Callers hold no lock.
func (f *TraceFile) Flow(pid, tid int, step string, id uint64, ts int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flowLocked(pid, tid, step, id, ts)
}

// flowLocked writes a flow event; callers hold mu. Flow ids are
// namespaced by pid so the same message traced by two networks in one
// file does not grow arrows across processes.
func (f *TraceFile) flowLocked(pid, tid int, step string, id uint64, ts int64) {
	line := fmt.Sprintf(`{"name":"msg %d","cat":"flow","ph":%q,"id":%d,"ts":%d,"pid":%d,"tid":%d`,
		id, step, flowID(pid, id), ts, pid, tid)
	if step == "f" {
		line += `,"bp":"e"`
	}
	f.write(line + "}")
}

// flowID namespaces a message's flow arrows per process.
func flowID(pid int, msgID uint64) uint64 { return uint64(pid+1)<<48 ^ msgID }

// flowStep maps lifecycle kinds to the flow phase that links a packet's
// inject through its intermediate stops to its ejection; other kinds
// (pass, switch, stalls) stay plain instants to keep traces lean.
func flowStep(k Kind) (string, bool) {
	switch k {
	case KindInject:
		return "s", true
	case KindLaunch, KindBuffer, KindDrop, KindRetry:
		return "t", true
	case KindEject, KindTap:
		return "f", true
	}
	return "", false
}

// Tracer returns a network tracer that records every event under pid.
// Lifecycle events (inject, launch, buffer, drop, retry, eject, tap) are
// written as 1-cycle slices carrying a flow event, so the trace UI draws
// arrows from a packet's injection through every stop to its ejection;
// all other kinds remain instant events. Events() counts router events,
// not JSON objects.
func (f *TraceFile) Tracer(pid int) func(Event) {
	return func(e Event) {
		f.mu.Lock()
		if step, ok := flowStep(e.Kind); ok && e.MsgID != 0 {
			f.write(fmt.Sprintf(`{"name":%q,"cat":"net","ph":"X","ts":%d,"dur":1,"pid":%d,"tid":%d,"args":{"msg":%d,"dir":%q}}`,
				e.Kind.String(), e.Cycle, pid, e.Node, e.MsgID, e.Dir.String()))
			f.flowLocked(pid, int(e.Node), step, e.MsgID, e.Cycle)
		} else {
			f.write(fmt.Sprintf(`{"name":%q,"cat":"net","ph":"i","ts":%d,"pid":%d,"tid":%d,"s":"t","args":{"msg":%d,"dir":%q}}`,
				e.Kind.String(), e.Cycle, pid, e.Node, e.MsgID, e.Dir.String()))
		}
		f.events++
		f.mu.Unlock()
	}
}

// Events returns the number of events recorded so far.
func (f *TraceFile) Events() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.events
}

// Close terminates the JSON array; the file is complete and valid after
// Close returns. It reports any write error seen along the way.
func (f *TraceFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed {
		if !f.opened {
			// An empty trace is still a valid (empty) array.
			if _, err := io.WriteString(f.w, "["); err != nil && f.err == nil {
				f.err = err
			}
			f.opened = true
		}
		if _, err := io.WriteString(f.w, "\n]\n"); err != nil && f.err == nil {
			f.err = err
		}
		f.closed = true
	}
	return f.err
}

// ValidateTrace decodes a trace stream written by TraceFile and returns
// the number of event objects (including metadata events). It fails if the
// file is not a JSON array of objects each carrying a "ph" phase - the
// check a deep dive (figures.Bundle) runs on every trace it writes.
func ValidateTrace(r io.Reader) (int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		return 0, fmt.Errorf("obs: trace is not a JSON event array: %w", err)
	}
	for i, e := range events {
		if _, ok := e["ph"].(string); !ok {
			return 0, fmt.Errorf("obs: trace event %d has no phase field", i)
		}
	}
	return len(events), nil
}
