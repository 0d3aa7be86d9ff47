package reqtrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// sumNS returns component c's latency summed over r's requests (ns).
func sumNS(r *Recorder, c Component) float64 {
	return float64(r.Latency().ComponentSum(int(c))) / psPerNS
}

// finishAndCheck finishes sp and asserts the sum invariant held.
func finishAndCheck(t *testing.T, r *Recorder, sp *Span, done sim.Time) {
	t.Helper()
	before := r.Latency().Violations()
	r.Finish(sp, done)
	if r.Latency().Violations() != before {
		t.Fatalf("invariant violation: %s", r.Latency().FirstViolation())
	}
}

func TestBreakdownCacheHit(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(100))
	// No stamps at all: the request hit a cache level.
	finishAndCheck(t, r, sp, sim.FromNS(104))
	if got := sumNS(r, CompCache); got != 4 {
		t.Fatalf("cache hit: cache component = %v ns, want 4", got)
	}
	if got := r.Latency().Mean() / psPerNS; got != 4 {
		t.Fatalf("total mean = %v ns, want 4", got)
	}
}

func TestBreakdownCoalesced(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(0))
	sp.StampMerge(sim.FromNS(10))
	sp.StampMerge(sim.FromNS(25)) // second merge must not win
	finishAndCheck(t, r, sp, sim.FromNS(80))
	if c, f := sumNS(r, CompCache), sumNS(r, CompFill); c != 10 || f != 70 {
		t.Fatalf("coalesced: cache=%v fill=%v, want 10/70", c, f)
	}
}

func TestBreakdownFullServicePath(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(1, sim.FromNS(0))
	sp.StampXlat(sim.FromNS(20))
	sp.StampEnqueue(sim.FromNS(50))
	sp.CreditRefresh(sim.FromNS(30), 800)
	sp.CreditMigration(sim.FromNS(10), 300)
	sp.StampPre(sim.FromNS(150), 75)
	sp.StampAct(sim.FromNS(165), 150)
	sp.StampRead(sim.FromNS(180), sim.FromNS(195), 110)
	finishAndCheck(t, r, sp, sim.FromNS(200))
	want := map[Component]float64{
		CompCache:     20, // issue -> xlat
		CompXlat:      30, // xlat -> enqueue
		CompQueue:     60, // enqueue -> PRE (100) minus credits (40)
		CompRefresh:   30, //
		CompMigration: 10, //
		CompConflict:  15, // PRE -> ACT
		CompService:   30, // ACT -> burst end
		CompFill:      5,  // burst end -> done
	}
	var sum float64
	for c, w := range want {
		if got := sumNS(r, c); got != w {
			t.Fatalf("%v = %v ns, want %v", c, got, w)
		}
		sum += w
	}
	if sum != 200 {
		t.Fatalf("test vector inconsistent: components sum to %v, want 200", sum)
	}
	// The energy ledger must telescope too: per-component sums reproduce
	// the independently accumulated total, with zero violations.
	if r.Energy().Violations() != 0 {
		t.Fatalf("energy violation: %s", r.Energy().FirstViolation())
	}
	wantE := map[Component]int64{
		CompConflict:  75,
		CompService:   260, // ACT 150 + RD 110
		CompRefresh:   800,
		CompMigration: 300,
	}
	var esum int64
	for c := Component(0); c < NumComponents; c++ {
		if got := r.Energy().ComponentSum(int(c)); got != wantE[c] {
			t.Fatalf("%v energy = %d pJ, want %d", c, got, wantE[c])
		}
		esum += r.Energy().ComponentSum(int(c))
	}
	if esum != r.Energy().Sum() || r.Energy().Sum() != 1435 {
		t.Fatalf("energy sum = %d pJ, total = %d pJ, want both 1435", esum, r.Energy().Sum())
	}
	if got := r.Energy().Mean(); got != 1435 {
		t.Fatalf("energy mean = %v pJ, want 1435", got)
	}
}

func TestBreakdownRowHit(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(0))
	sp.StampEnqueue(sim.FromNS(10))
	// Row already open: straight to the column read, no PRE/ACT.
	sp.StampRead(sim.FromNS(40), sim.FromNS(55), 110)
	finishAndCheck(t, r, sp, sim.FromNS(60))
	if q, s := sumNS(r, CompQueue), sumNS(r, CompService); q != 30 || s != 15 {
		t.Fatalf("row hit: queue=%v service=%v, want 30/15", q, s)
	}
	if c := sumNS(r, CompConflict); c != 0 {
		t.Fatalf("row hit: conflict=%v, want 0", c)
	}
}

func TestBreakdownLastActWins(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(0))
	sp.StampEnqueue(sim.FromNS(0))
	sp.StampPre(sim.FromNS(10), 75)
	sp.StampAct(sim.FromNS(20), 150)
	// A sibling stole the bank; re-open for this request later.
	sp.StampAct(sim.FromNS(80), 150)
	sp.StampRead(sim.FromNS(90), sim.FromNS(100), 110)
	finishAndCheck(t, r, sp, sim.FromNS(100))
	// Conflict extends from the first PRE to the final ACT.
	if c := sumNS(r, CompConflict); c != 70 {
		t.Fatalf("conflict = %v ns, want 70", c)
	}
	if s := sumNS(r, CompService); s != 20 {
		t.Fatalf("service = %v ns, want 20", s)
	}
	// Both activations' energy accumulates even though only the last ACT
	// time wins.
	if got := r.Energy().ComponentSum(int(CompService)); got != 410 {
		t.Fatalf("service energy = %d pJ, want 410 (two ACTs + RD)", got)
	}
	if r.Energy().Violations() != 0 {
		t.Fatalf("energy violation: %s", r.Energy().FirstViolation())
	}
}

func TestCreditClampKeepsQueueNonNegative(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(0))
	sp.StampEnqueue(sim.FromNS(10))
	// Over-credit far beyond the actual wait window.
	sp.CreditRefresh(sim.FromNS(500), 800)
	sp.CreditMigration(sim.FromNS(500), 300)
	sp.StampRead(sim.FromNS(50), sim.FromNS(60), 110)
	finishAndCheck(t, r, sp, sim.FromNS(60))
	if q := sumNS(r, CompQueue); q != 0 {
		t.Fatalf("queue = %v ns, want 0 after clamp", q)
	}
	if ref := sumNS(r, CompRefresh); ref != 40 {
		t.Fatalf("refresh clamped to %v ns, want 40 (the whole wait)", ref)
	}
	if mig := sumNS(r, CompMigration); mig != 0 {
		t.Fatalf("migration = %v ns, want 0 (refresh consumed the wait)", mig)
	}
	// Time credits clamp; energy does not (the blocking commands really
	// did spend those joules), so the ledger still telescopes.
	if ref, mig := r.Energy().ComponentSum(int(CompRefresh)), r.Energy().ComponentSum(int(CompMigration)); ref != 800 || mig != 300 {
		t.Fatalf("credit energy = %d/%d pJ, want 800/300 (unclamped)", ref, mig)
	}
	if r.Energy().Violations() != 0 {
		t.Fatalf("energy violation: %s", r.Energy().FirstViolation())
	}
}

func TestViolationCountedNotPanicked(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(100))
	// done before issue: impossible, must be flagged.
	r.Finish(sp, sim.FromNS(50))
	if r.Latency().Violations() != 1 {
		t.Fatalf("violations = %d, want 1", r.Latency().Violations())
	}
	if r.Latency().FirstViolation() == "" || !strings.Contains(r.Latency().FirstViolation(), "core 0") {
		t.Fatalf("first violation = %q", r.Latency().FirstViolation())
	}
}

func TestSamplingDeterministicAndSpread(t *testing.T) {
	a := NewRecorder("a", 64, 12345)
	b := NewRecorder("b", 64, 12345)
	offsets := make(map[uint64]int)
	for core := 0; core < 16; core++ {
		oa, ob := a.OffsetFor(core), b.OffsetFor(core)
		if oa != ob {
			t.Fatalf("core %d: offsets differ for equal seeds (%d vs %d)", core, oa, ob)
		}
		if oa >= 64 {
			t.Fatalf("core %d: offset %d out of range", core, oa)
		}
		offsets[oa]++
	}
	if len(offsets) < 2 {
		t.Fatalf("all 16 cores sample in lockstep: offsets %v", offsets)
	}
	if c := NewRecorder("c", 64, 999); c.OffsetFor(0) == a.OffsetFor(0) && c.OffsetFor(1) == a.OffsetFor(1) && c.OffsetFor(2) == a.OffsetFor(2) {
		t.Fatal("different seeds produced identical offset streams")
	}
	if n := NewRecorder("n", 0, 1).SampleN(); n != 1 {
		t.Fatalf("sampleN clamp: %d, want 1", n)
	}
}

func TestSpanPoolRecycles(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(0))
	r.Finish(sp, sim.FromNS(10))
	sp2 := r.Begin(1, sim.FromNS(20))
	if sp2 != sp {
		t.Fatal("pooled span not recycled")
	}
	// The recycled span must be fully re-armed.
	if sp2.Waiting() {
		t.Fatal("recycled span still looks enqueued")
	}
	finishAndCheck(t, r, sp2, sim.FromNS(30))
	if r.Latency().Count() != 2 {
		t.Fatalf("requests = %d, want 2", r.Latency().Count())
	}
}

func TestNilSpanStampsAreNoOps(t *testing.T) {
	var sp *Span
	sp.StampMerge(1)
	sp.StampXlat(1)
	sp.StampEnqueue(1)
	sp.StampPre(1, 10)
	sp.StampAct(1, 10)
	sp.StampRead(1, 2, 10)
	sp.CreditRefresh(1, 10)
	sp.CreditMigration(1, 10)
	sp.SetBankTID(3)
	if sp.Waiting() {
		t.Fatal("nil span reports waiting")
	}
	var r *Recorder
	if r.Latency() != nil || r.Energy() != nil {
		t.Fatal("nil recorder returned non-nil ledgers")
	}
}

func TestFinishEmitsTraceFlow(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	tr := telemetry.NewTraceRecorder("run")
	r.AttachTrace(tr, 100)
	sp := r.Begin(2, sim.FromNS(0))
	sp.StampEnqueue(sim.FromNS(5))
	sp.StampRead(sim.FromNS(20), sim.FromNS(30), 110)
	sp.SetBankTID(7)
	finishAndCheck(t, r, sp, sim.FromNS(35))
	// REQ duration + flow start + flow end.
	if tr.Len() != 3 {
		t.Fatalf("trace events = %d, want 3", tr.Len())
	}
	var out strings.Builder
	if err := telemetry.EncodeTrace(&out, []*telemetry.TraceRecorder{tr}); err != nil {
		t.Fatal(err)
	}
	enc := out.String()
	for _, want := range []string{`"ph":"s"`, `"ph":"f"`, `"cat":"flow"`, `"bp":"e"`, `"name":"REQ"`} {
		if !strings.Contains(enc, want) {
			t.Fatalf("encoded trace missing %s:\n%s", want, enc)
		}
	}
}

// wantCSV and wantJSON pin the sink bytes for TestEncodersDeterministicAndSorted's
// input. wantJSON is written one object per line; the encoder's output
// must equal it re-indented with two spaces plus a trailing newline.
const wantCSV = `run,requests,violations,energy_violations,component,sum_ns,mean_ns,share_pct,p50_ns,p95_ns,p99_ns,energy_pj,energy_mean_pj
"a,run",1,0,0,total,3.000,3.000,100.00,3,3,3,0,0.0
"a,run",1,0,0,cache,3.000,3.000,100.00,3,3,3,0,0.0
"a,run",1,0,0,xlat,0.000,0.000,0.00,0,0,0,0,0.0
"a,run",1,0,0,queue,0.000,0.000,0.00,0,0,0,0,0.0
"a,run",1,0,0,refresh,0.000,0.000,0.00,0,0,0,0,0.0
"a,run",1,0,0,migration,0.000,0.000,0.00,0,0,0,0,0.0
"a,run",1,0,0,conflict,0.000,0.000,0.00,0,0,0,0,0.0
"a,run",1,0,0,service,0.000,0.000,0.00,0,0,0,0,0.0
"a,run",1,0,0,fill,0.000,0.000,0.00,0,0,0,0,0.0
b-run,2,0,0,total,144.000,72.000,100.00,15,255,255,1245,622.5
b-run,2,0,0,cache,7.000,3.500,4.86,3,7,7,0,0.0
b-run,2,0,0,xlat,15.000,7.500,10.42,0,15,15,0,0.0
b-run,2,0,0,queue,38.000,19.000,26.39,15,31,31,0,0.0
b-run,2,0,0,refresh,30.000,15.000,20.83,0,31,31,800,400.0
b-run,2,0,0,migration,0.000,0.000,0.00,0,0,0,0,0.0
b-run,2,0,0,conflict,15.000,7.500,10.42,0,15,15,75,37.5
b-run,2,0,0,service,32.000,16.000,22.22,3,31,31,370,185.0
b-run,2,0,0,fill,7.000,3.500,4.86,3,7,7,0,0.0
`

const wantJSON = `[{"run":"a,run","requests":1,"violations":0,"energy_violations":0,
"total":{"name":"total","sum_ns":3,"mean_ns":3,"share_pct":100,"p50_ns":3,"p95_ns":3,"p99_ns":3,"energy_pj":0,"energy_mean_pj":0},
"components":[
{"name":"cache","sum_ns":3,"mean_ns":3,"share_pct":100,"p50_ns":3,"p95_ns":3,"p99_ns":3,"energy_pj":0,"energy_mean_pj":0},
{"name":"xlat","sum_ns":0,"mean_ns":0,"share_pct":0,"p50_ns":0,"p95_ns":0,"p99_ns":0,"energy_pj":0,"energy_mean_pj":0},
{"name":"queue","sum_ns":0,"mean_ns":0,"share_pct":0,"p50_ns":0,"p95_ns":0,"p99_ns":0,"energy_pj":0,"energy_mean_pj":0},
{"name":"refresh","sum_ns":0,"mean_ns":0,"share_pct":0,"p50_ns":0,"p95_ns":0,"p99_ns":0,"energy_pj":0,"energy_mean_pj":0},
{"name":"migration","sum_ns":0,"mean_ns":0,"share_pct":0,"p50_ns":0,"p95_ns":0,"p99_ns":0,"energy_pj":0,"energy_mean_pj":0},
{"name":"conflict","sum_ns":0,"mean_ns":0,"share_pct":0,"p50_ns":0,"p95_ns":0,"p99_ns":0,"energy_pj":0,"energy_mean_pj":0},
{"name":"service","sum_ns":0,"mean_ns":0,"share_pct":0,"p50_ns":0,"p95_ns":0,"p99_ns":0,"energy_pj":0,"energy_mean_pj":0},
{"name":"fill","sum_ns":0,"mean_ns":0,"share_pct":0,"p50_ns":0,"p95_ns":0,"p99_ns":0,"energy_pj":0,"energy_mean_pj":0}]},
{"run":"b-run","requests":2,"violations":0,"energy_violations":0,
"total":{"name":"total","sum_ns":144,"mean_ns":72,"share_pct":100,"p50_ns":15,"p95_ns":255,"p99_ns":255,"energy_pj":1245,"energy_mean_pj":622.5},
"components":[
{"name":"cache","sum_ns":7,"mean_ns":3.5,"share_pct":4.861111111111111,"p50_ns":3,"p95_ns":7,"p99_ns":7,"energy_pj":0,"energy_mean_pj":0},
{"name":"xlat","sum_ns":15,"mean_ns":7.5,"share_pct":10.416666666666666,"p50_ns":0,"p95_ns":15,"p99_ns":15,"energy_pj":0,"energy_mean_pj":0},
{"name":"queue","sum_ns":38,"mean_ns":19,"share_pct":26.38888888888889,"p50_ns":15,"p95_ns":31,"p99_ns":31,"energy_pj":0,"energy_mean_pj":0},
{"name":"refresh","sum_ns":30,"mean_ns":15,"share_pct":20.833333333333332,"p50_ns":0,"p95_ns":31,"p99_ns":31,"energy_pj":800,"energy_mean_pj":400},
{"name":"migration","sum_ns":0,"mean_ns":0,"share_pct":0,"p50_ns":0,"p95_ns":0,"p99_ns":0,"energy_pj":0,"energy_mean_pj":0},
{"name":"conflict","sum_ns":15,"mean_ns":7.5,"share_pct":10.416666666666666,"p50_ns":0,"p95_ns":15,"p99_ns":15,"energy_pj":75,"energy_mean_pj":37.5},
{"name":"service","sum_ns":32,"mean_ns":16,"share_pct":22.22222222222222,"p50_ns":3,"p95_ns":31,"p99_ns":31,"energy_pj":370,"energy_mean_pj":185},
{"name":"fill","sum_ns":7,"mean_ns":3.5,"share_pct":4.861111111111111,"p50_ns":3,"p95_ns":7,"p99_ns":7,"energy_pj":0,"energy_mean_pj":0}]}]`

func TestEncodersDeterministicAndSorted(t *testing.T) {
	build := func() []*Recorder {
		// Construct in reverse label order; encoders must sort. The
		// a-run label needs CSV quoting.
		rb := NewRecorder("b-run", 1, 1)
		sp := rb.Begin(0, 0)
		sp.StampEnqueue(sim.FromNS(2))
		sp.StampRead(sim.FromNS(10), sim.FromNS(12), 110)
		rb.Finish(sp, sim.FromNS(14))
		sp = rb.Begin(1, sim.FromNS(20))
		sp.StampXlat(sim.FromNS(25))
		sp.StampEnqueue(sim.FromNS(40))
		sp.CreditRefresh(sim.FromNS(30), 800)
		sp.StampPre(sim.FromNS(100), 75)
		sp.StampAct(sim.FromNS(115), 150)
		sp.StampRead(sim.FromNS(130), sim.FromNS(145), 110)
		rb.Finish(sp, sim.FromNS(150))
		ra := NewRecorder("a,run", 1, 1)
		sp = ra.Begin(0, 0)
		ra.Finish(sp, sim.FromNS(3))
		return []*Recorder{rb, nil, ra}
	}
	var csv1, csv2 strings.Builder
	var json1, want bytes.Buffer
	if err := EncodeCSV(&csv1, build()); err != nil {
		t.Fatal(err)
	}
	if err := EncodeCSV(&csv2, build()); err != nil {
		t.Fatal(err)
	}
	if csv1.String() != csv2.String() {
		t.Fatal("CSV encoding not deterministic")
	}
	if csv1.String() != wantCSV {
		t.Fatalf("CSV bytes:\n%s\nwant:\n%s", csv1.String(), wantCSV)
	}
	if err := EncodeJSON(&json1, build()); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, []byte(wantJSON)); err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&want, compact.Bytes(), "", "  "); err != nil {
		t.Fatal(err)
	}
	want.WriteByte('\n')
	if json1.String() != want.String() {
		t.Fatalf("JSON bytes:\n%s\nwant:\n%s", json1.String(), want.String())
	}

	// Both sinks must carry the same numbers per run: each CSV row is
	// the matching JSON row printed at the CSV's precision.
	var docs []runJSON
	if err := json.Unmarshal(json1.Bytes(), &docs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(csv1.String(), "\n"), "\n")[1:]
	var fromJSON []string
	for _, d := range docs {
		for _, c := range append([]componentJSON{d.Total}, d.Components...) {
			fromJSON = append(fromJSON, fmt.Sprintf("%s,%d,%d,%d,%s,%.3f,%.3f,%.2f,%d,%d,%d,%d,%.1f",
				csvField(d.Run), d.Requests, d.Violations, d.EnergyViolations, c.Name,
				c.SumNS, c.MeanNS, c.SharePct, c.P50NS, c.P95NS, c.P99NS, c.EnergyPJ, c.EnergyMeanPJ))
		}
	}
	if strings.Join(lines, "\n") != strings.Join(fromJSON, "\n") {
		t.Fatalf("CSV and JSON disagree:\ncsv:\n%s\njson:\n%s", strings.Join(lines, "\n"), strings.Join(fromJSON, "\n"))
	}
}

func TestEnergyViolationCounted(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(0))
	sp.StampEnqueue(sim.FromNS(5))
	sp.StampRead(sim.FromNS(10), sim.FromNS(20), 110)
	// Simulate a buggy stamp site that bumps the running total without
	// attributing the energy to any component: the ledger must catch it.
	sp.eTotalPJ += 7
	r.Finish(sp, sim.FromNS(25))
	if r.Energy().Violations() != 1 {
		t.Fatalf("energy violations = %d, want 1", r.Energy().Violations())
	}
	if msg := r.Energy().FirstViolation(); !strings.Contains(msg, "total=117pJ") || !strings.Contains(msg, "sum=110pJ") {
		t.Fatalf("first energy violation = %q", msg)
	}
	// The latency decomposition is independent and must still hold.
	if r.Latency().Violations() != 0 {
		t.Fatalf("latency violations = %d, want 0", r.Latency().Violations())
	}
}

func TestSpanPoolResetsEnergyLedger(t *testing.T) {
	r := NewRecorder("run", 1, 42)
	sp := r.Begin(0, sim.FromNS(0))
	sp.StampEnqueue(sim.FromNS(1))
	sp.StampPre(sim.FromNS(2), 75)
	sp.StampAct(sim.FromNS(3), 150)
	sp.StampRead(sim.FromNS(4), sim.FromNS(5), 110)
	r.Finish(sp, sim.FromNS(6))
	sp2 := r.Begin(0, sim.FromNS(10))
	if sp2 != sp {
		t.Fatal("pooled span not recycled")
	}
	finishAndCheck(t, r, sp2, sim.FromNS(12))
	// The recycled span was a pure cache hit: no stale energy may leak.
	if got := r.Energy().Sum(); got != 335 {
		t.Fatalf("energy after recycle = %d pJ, want 335 (first span only)", got)
	}
	if r.Energy().Violations() != 0 {
		t.Fatalf("energy violation: %s", r.Energy().FirstViolation())
	}
}
