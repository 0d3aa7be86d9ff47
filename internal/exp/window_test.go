package exp

import (
	"regexp"
	"testing"

	"repro/internal/core"
)

// levels matches timeline metrics that are levels (queue depths, live
// MSHRs, histogram means and quantiles) rather than counts.
var levels = regexp.MustCompile(`\.queue\.|\.mshr_(live|pending)$|\.(mean|p50|p99)$`)

// TestCountersAreWholeRun pins the counter contract: components count
// every event once, over the whole run, and never reset mid-run; exp
// takes the measurement window by subtracting the snapshot taken when
// the last core finished warm-up.
func TestCountersAreWholeRun(t *testing.T) {
	cfg := tinyConfig()
	cfg.Cores = 2
	sys, _, err := Build(cfg, core.DAS, []string{"mcf", "soplex"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	obs := newObserver("contract", cfg.Seed, &ObserveOptions{Metrics: true, IntervalPS: 10_000_000})
	sys.AttachObserver(obs)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]float64{}
	for _, e := range obs.Timeline.Epochs() {
		for _, m := range e.Metrics {
			if v, ok := last[m.Name]; ok && m.Value < v && !levels.MatchString(m.Name) {
				t.Errorf("%s fell from %v to %v at %d ps", m.Name, v, m.Value, e.AtPS)
			}
			last[m.Name] = m.Value
		}
	}
	final := sys.Dev.CollectStats()
	for _, name := range []string{"dram.cmd.act", "mc.row_misses"} {
		if last[name] != float64(final.Activates) {
			t.Errorf("final %s = %v, device's whole-run activates %d", name, last[name], final.Activates)
		}
	}
	if warm := sys.warm.dev; warm.Activates == 0 || warm.Activates >= final.Activates {
		t.Errorf("warm-up snapshot %d activates, whole run %d", warm.Activates, final.Activates)
	} else if want := final.Sub(warm); res.DevStats != want {
		t.Errorf("DevStats = %+v, want final minus warm-up snapshot %+v", res.DevStats, want)
	}
}
