package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func promTestRegistry() *Registry {
	r := New()
	r.Counter("serve.jobs.done").Add(7)
	r.Gauge("serve.jobs.running").Set(2)
	r.Sample("sim.events_executed", func() int64 { return 12345 })
	h := r.Histogram("serve.queue.wait_us")
	for _, v := range []uint64{0, 1, 2, 5, 9, 17, 1000, 1_000_000} {
		h.Observe(v)
	}
	return r
}

func TestEncodePrometheusDeterministicAndValid(t *testing.T) {
	r := promTestRegistry()
	var a, b bytes.Buffer
	if err := EncodePrometheus(&a, r); err != nil {
		t.Fatal(err)
	}
	if err := EncodePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("repeated encodes differ:\n%s\n--\n%s", a.Bytes(), b.Bytes())
	}
	if err := ValidateExposition(a.Bytes()); err != nil {
		t.Fatalf("encoder output rejected by validator: %v\n%s", err, a.Bytes())
	}
	out := a.String()
	for _, want := range []string{
		"# TYPE serve_jobs_done counter",
		"# TYPE serve_jobs_running gauge",
		"# TYPE sim_events_executed gauge",
		"# TYPE serve_queue_wait_us histogram",
		"serve_queue_wait_us_bucket{le=\"+Inf\"} 8",
		"serve_queue_wait_us_count 8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestEncodePrometheusNilAndSorted(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodePrometheus(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry: err %v, output %q", err, buf.Bytes())
	}
	r := New()
	r.Counter("b.two").Add(2)
	r.Gauge("a.one").Set(1)
	if err := EncodePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("output invalid: %v\n%s", err, buf.Bytes())
	}
	// Families are sorted by name across instrument kinds.
	out := buf.String()
	if strings.Index(out, "a_one") > strings.Index(out, "b_two") {
		t.Fatalf("families not sorted across kinds:\n%s", out)
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"serve.queue.wait_us": "serve_queue_wait_us",
		"par.up.busy_ns":      "par_up_busy_ns",
		"9lives":              "_9lives",
		"ok:name_1":           "ok:name_1",
		"weird-chars now":     "weird_chars_now",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample before HELP": "foo 1\n",
		"TYPE without HELP":  "# TYPE foo counter\nfoo 1\n",
		"unsorted families": "# HELP b b\n# TYPE b counter\nb 1\n" +
			"# HELP a a\n# TYPE a counter\na 1\n",
		"negative counter": "# HELP c c\n# TYPE c counter\nc -1\n",
		"non-cumulative buckets": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n",
		"le not increasing": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n",
		"inf != count": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
		"missing +Inf": "# HELP h h\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"foreign sample in family": "# HELP a a\n# TYPE a gauge\nb 1\n",
		"family with no samples":   "# HELP a a\n# TYPE a counter\n",
	}
	for name, data := range cases {
		if err := ValidateExposition([]byte(data)); err == nil {
			t.Errorf("%s: validator accepted invalid exposition:\n%s", name, data)
		}
	}
}

func TestValidateExpositionAcceptsEmpty(t *testing.T) {
	if err := ValidateExposition(nil); err != nil {
		t.Fatalf("empty exposition should be valid: %v", err)
	}
}

// energyTestRegistry registers the same instrument set the dram device
// attaches for energy metering: the ten per-command picojoule counters,
// the background sample, and a per-request energy histogram like the
// flight recorder's.
func energyTestRegistry() *Registry {
	r := New()
	r.Counter("dram.energy_pj.act_slow").Add(15099 * 3)
	r.Counter("dram.energy_pj.act_fast").Add(3774 * 5)
	r.Counter("dram.energy_pj.pre_slow").Add(7549 * 3)
	r.Counter("dram.energy_pj.pre_fast").Add(1887 * 5)
	r.Counter("dram.energy_pj.rd_slow").Add(11288 * 2)
	r.Counter("dram.energy_pj.rd_fast").Add(10502 * 6)
	r.Counter("dram.energy_pj.wr_slow").Add(13848)
	r.Counter("dram.energy_pj.wr_fast").Add(13062 * 2)
	r.Counter("dram.energy_pj.ref").Add(181184)
	r.Counter("dram.energy_pj.mig").Add(69725 * 2)
	r.Sample("dram.energy_pj.background", func() int64 { return 50 * 4 * 123456 })
	h := r.Histogram("req.energy_pj")
	for _, v := range []uint64{0, 3774, 15099, 26387, 69725, 181184} {
		h.Observe(v)
	}
	return r
}

// TestEncodePrometheusEnergyFamilies: the energy counter and histogram
// families scrape byte-identically, pass the self-validator, and keep
// cumulative le buckets monotone.
func TestEncodePrometheusEnergyFamilies(t *testing.T) {
	r := energyTestRegistry()
	var a, b bytes.Buffer
	if err := EncodePrometheus(&a, r); err != nil {
		t.Fatal(err)
	}
	if err := EncodePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("repeated energy scrapes differ:\n%s\n--\n%s", a.Bytes(), b.Bytes())
	}
	if err := ValidateExposition(a.Bytes()); err != nil {
		t.Fatalf("energy exposition rejected by validator: %v\n%s", err, a.Bytes())
	}
	out := a.String()
	for _, want := range []string{
		"# TYPE dram_energy_pj_act_slow counter",
		"# TYPE dram_energy_pj_act_fast counter",
		"# TYPE dram_energy_pj_ref counter",
		"# TYPE dram_energy_pj_mig counter",
		"# TYPE dram_energy_pj_background gauge",
		"# TYPE req_energy_pj histogram",
		"dram_energy_pj_act_slow 45297",
		"dram_energy_pj_background 24691200",
		"req_energy_pj_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("energy exposition missing %q:\n%s", want, out)
		}
	}
	// le-bucket monotonicity of the energy histogram, checked directly in
	// addition to the validator's structural pass.
	var last uint64
	seen := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "req_energy_pj_bucket{") {
			continue
		}
		var n uint64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket counts not cumulative at %q (prev %d)", line, last)
		}
		last = n
		seen++
	}
	if seen < 2 {
		t.Fatalf("energy histogram rendered %d buckets, want >= 2:\n%s", seen, out)
	}
}
