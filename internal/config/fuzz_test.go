package config_test

import (
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
)

// fuzzInstr is the per-core budget of the fuzz target's short runs.
const fuzzInstr = 1000

// FuzzConfigJSON feeds arbitrary bytes through Parse: any input must
// either yield a validated configuration or an error — never a panic
// (dasbench exposes -config to user-supplied files, dasserve request
// bodies). An accepted config must build for every design (the static
// ones given an empty assignment), and Standard and DAS must complete a
// short run: Validate is the only boundary, so nothing it accepts may
// fail later.
func FuzzConfigJSON(f *testing.F) {
	if def, err := json.MarshalIndent(config.Default(), "", "  "); err == nil {
		f.Add(def)
	}
	if sc, err := json.Marshal(config.Scaled()); err == nil {
		f.Add(sc)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"Cores":0}`))
	f.Add([]byte(`{"RowsPerBank":-5}`))
	f.Add([]byte(`{"RowsPerBank":3}`))
	f.Add([]byte(`{"Replacement":"bogus"}`))
	f.Add([]byte(`{"FastDenom":1000000,"GroupSize":-1}`))
	f.Add([]byte(`{"WeakRowRate":2.5,"MigFailRate":-1}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"cpu_ghz":0}`))
	f.Add([]byte(`{"cpu_ghz":5000}`))
	for _, in := range rejectedConfigs {
		f.Add([]byte(in))
	}
	f.Add([]byte(`{"cores":64}`))
	// The slowest machine accepted: every simulated-time cap at once.
	f.Add([]byte(`{"cpu_ghz":0.01,"rob":1,"width":1,"l1_latency":1000,"l2_latency":1000,"llc_latency":1000,` +
		`"migration_latency_ns":10000,"fault_mig_fail_rate":1,"fault_mig_retries":16}`))
	// The widest: every core, the least DRAM per core, a starved controller.
	f.Add([]byte(`{"cores":64,"channels":1,"ranks":1,"banks":1,"rows_per_bank":8192,"columns":256,` +
		`"window_size":1,"write_high":1,"write_low":0,"llc_mshrs":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := config.Parse(data)
		if err != nil {
			return
		}
		c.InstrPerCore = fuzzInstr
		set := make([]string, c.Cores)
		for i := range set {
			set[i] = "mcf"
		}
		for _, d := range core.AllDesigns() {
			var static *core.StaticAssignment
			if d.Static() {
				static = &core.StaticAssignment{}
			}
			sys, _, err := exp.Build(c, d, set, static, false)
			if err != nil {
				t.Fatalf("validated config fails Build(%v): %v\ninput: %s", d, err, data)
			}
			if d != core.Standard && d != core.DAS {
				continue
			}
			if _, err := sys.Run(); err != nil {
				t.Fatalf("validated config fails Run(%v): %v\ninput: %s", d, err, data)
			}
		}
	})
}
