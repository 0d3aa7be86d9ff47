package config_test

import (
	"testing"

	"repro/internal/config"
)

// rejectedConfigs are request bodies Parse must refuse. Each one used to
// parse and then fail inside exp.Build (the component validators ran
// only there), or to make Build allocate hundreds of megabytes.
var rejectedConfigs = []string{
	`{"group_size":7}`,     // not divisible by fast_denom 8 (core layout)
	`{"rows_per_bank":16}`, // not divisible by group_size 32 (core layout)
	`{"rob":0}`,
	`{"width":0}`,
	`{"width":8,"rob":4}`,
	`{"l1_kb":3}`, // 6 sets: not a power of two
	`{"l2_assoc":0}`,
	`{"llc_mshrs":0}`,
	`{"l1_latency":-1}`,
	`{"tag_cache_kb":0}`,
	`{"tag_cache_assoc":3}`, // 64k entries cannot form 3-way sets
	`{"filter_counters":0}`,
	`{"filter_threshold":0}`,
	`{"fast_denom":0}`,
	`{"window_size":0}`,
	`{"write_high":8,"write_low":8}`,
	`{"starvation_limit_ns":0}`,
	`{"migration_latency_ns":-1}`,
	`{"fault_mig_retries":-1}`,
	// Host-memory caps.
	`{"cores":65}`,
	`{"rows_per_bank":4194304}`,
	`{"channels":64,"ranks":8,"banks":16}`,
	`{"columns":4611686018427387904,"block_size":4611686018427387904}`,
	`{"llc_kb":1048576}`,
	`{"l2_kb":131072}`,
	`{"tag_cache_kb":4096}`,
	`{"cores":64,"l1_kb":1024,"l2_kb":1024}`,
	`{"rob":4097}`,
	`{"filter_threshold":2,"filter_counters":100000000}`,
	`{"l1_kb":-18014398509481920}`,    // ×1024 wraps to a positive 64 KB
	`{"cores":64,"rows_per_bank":32}`, // 512 KB per core: below any footprint
	// Simulated-time caps.
	`{"cpu_ghz":0.001}`,
	`{"llc_latency":1001}`,
	`{"l1_latency":4611686018427387904}`,
	`{"migration_latency_ns":10001}`,
	`{"fault_mig_retries":17}`,
}

func TestParseRejectsUnbuildable(t *testing.T) {
	for _, in := range rejectedConfigs {
		if _, err := config.Parse([]byte(in)); err == nil {
			t.Errorf("Parse accepted %s", in)
		}
	}
}

// TestParseAcceptsCaps pins the caps as inclusive: the largest machine
// allowed still parses.
func TestParseAcceptsCaps(t *testing.T) {
	for _, in := range []string{
		`{"cores":64}`,
		`{"rows_per_bank":262144}`, // 64 GB
		`{"llc_kb":65536,"l2_kb":32768,"l1_kb":32768}`,
		`{"cores":64,"l1_kb":64,"l2_kb":256,"llc_kb":65536}`,
		`{"tag_cache_kb":2048}`,
		`{"rob":4096}`,
		`{"filter_threshold":2,"filter_counters":65536}`,
		`{"group_size":8}`,
		`{"fast_denom":32}`,
		`{"cpu_ghz":0.01}`,
		`{"l1_latency":1000,"l2_latency":1000,"llc_latency":1000}`,
		`{"migration_latency_ns":10000,"fault_mig_retries":16}`,
	} {
		if _, err := config.Parse([]byte(in)); err != nil {
			t.Errorf("Parse rejected %s: %v", in, err)
		}
	}
}

// TestValidateAllocatesNothing holds Validate to zero allocations:
// pooled runs call it on every System.Reset.
func TestValidateAllocatesNothing(t *testing.T) {
	c := config.Scaled()
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Validate allocates %v objects per call", n)
	}
}
