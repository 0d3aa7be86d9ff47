package exp

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// observedFig7a renders a two-benchmark Fig7a with telemetry fully
// enabled and returns the figure text plus the merged sink bytes.
func observedFig7a(t *testing.T, par int) (fig, timelineCSV, trace string) {
	t.Helper()
	s := NewSession(tinyConfig())
	s.Parallelism = par
	s.Benchmarks = []string{"mcf", "libquantum"}
	s.Observe = &ObserveOptions{Metrics: true, Trace: true, ReqTraceN: 3}
	f, err := s.Figure("7a")
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf, traceBuf bytes.Buffer
	if err := s.WriteTimelineCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteTrace(&traceBuf); err != nil {
		t.Fatal(err)
	}
	return f.Render(), csvBuf.String(), traceBuf.String()
}

// TestTelemetryDoesNotPerturbFigures is the core guarantee: a fully
// observed session renders byte-identical figure output to an
// uninstrumented one. Telemetry records from the host run loop and
// nil-guarded issue sites, never through engine events, so enabling it
// must not move a single simulated command.
func TestTelemetryDoesNotPerturbFigures(t *testing.T) {
	plain := renderFig7a(t, 1)
	observed, _, _ := observedFig7a(t, 1)
	if plain != observed {
		t.Fatalf("telemetry perturbed figure output:\nplain:\n%s\nobserved:\n%s", plain, observed)
	}
}

// TestTelemetrySinksDeterministic renders the observed figure serially
// and at full parallelism: merged sink output sorts by run label, so
// the bytes must not depend on host scheduling or completion order.
func TestTelemetrySinksDeterministic(t *testing.T) {
	_, csvSerial, traceSerial := observedFig7a(t, 1)
	_, csvWide, traceWide := observedFig7a(t, max(2, runtime.GOMAXPROCS(0)))
	if csvSerial != csvWide {
		t.Errorf("timeline CSV depends on session parallelism")
	}
	if traceSerial != traceWide {
		t.Errorf("trace JSON depends on session parallelism")
	}
	if !strings.Contains(csvSerial, "dram.cmd.act") {
		t.Errorf("timeline CSV missing dram command counters:\n%.400s", csvSerial)
	}
}

// TestTraceExportIsValidTraceEventJSON validates the exporter against
// the Chrome trace-event schema: top-level traceEvents array, every
// event carrying name/ph/pid/tid, complete events a non-negative
// ts+dur, instant events a scope, flow events an id, counter events an
// args.value, and metadata naming each process and each track once.
func TestTraceExportIsValidTraceEventJSON(t *testing.T) {
	_, _, trace := observedFig7a(t, 1)
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  *string  `json:"name"`
			Ph    *string  `json:"ph"`
			Ts    *float64 `json:"ts"`
			Dur   *float64 `json:"dur"`
			Pid   *int     `json:"pid"`
			Tid   *int     `json:"tid"`
			Scope string   `json:"s"`
			ID    string   `json:"id"`
			Args  map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	var processes, complete, instant, flows, counters int
	trackNames := map[[2]int]any{}
	for i, e := range doc.TraceEvents {
		if e.Name == nil || e.Ph == nil || e.Pid == nil || e.Tid == nil {
			t.Fatalf("event %d missing required field: %+v", i, e)
		}
		switch *e.Ph {
		case "M":
			switch *e.Name {
			case "process_name":
				processes++
			case "thread_name":
				key := [2]int{*e.Pid, *e.Tid}
				if prev, dup := trackNames[key]; dup {
					t.Fatalf("pid %d tid %d named twice: %v and %v", key[0], key[1], prev, e.Args["name"])
				}
				trackNames[key] = e.Args["name"]
			}
		case "X":
			complete++
			if e.Ts == nil || e.Dur == nil || *e.Ts < 0 || *e.Dur < 0 {
				t.Fatalf("complete event %d lacks non-negative ts/dur: %+v", i, e)
			}
		case "i":
			instant++
			if e.Ts == nil || e.Scope == "" {
				t.Fatalf("instant event %d lacks ts/scope: %+v", i, e)
			}
		case "s", "f":
			flows++
			if e.Ts == nil || e.ID == "" {
				t.Fatalf("flow event %d lacks ts/id: %+v", i, e)
			}
		case "C":
			counters++
			if e.Ts == nil || *e.Ts < 0 {
				t.Fatalf("counter event %d lacks non-negative ts: %+v", i, e)
			}
			if _, ok := e.Args["value"]; !ok {
				t.Fatalf("counter event %d lacks args.value: %+v", i, e)
			}
		default:
			t.Fatalf("event %d has unexpected phase %q", i, *e.Ph)
		}
	}
	if processes == 0 {
		t.Error("no process_name metadata emitted")
	}
	if complete == 0 {
		t.Error("no complete (DRAM command) events emitted")
	}
	if flows == 0 || flows%2 != 0 {
		t.Errorf("request flow events = %d, want a positive even count (start/end pairs)", flows)
	}
	if counters == 0 {
		t.Error("no cumulative-energy counter events emitted")
	}
	_ = instant // fault events only appear on faulty-device runs
}
