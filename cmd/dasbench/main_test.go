package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
)

func parseConfig(t *testing.T, args ...string) config.Config {
	t.Helper()
	fs := flag.NewFlagSet("dasbench", flag.ContinueOnError)
	configFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, err := configure(fs)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestConfigFileSurvivesAbsentFlags pins that a -config file's settings
// reach the run unless a flag explicitly overrides them.
func TestConfigFileSurvivesAbsentFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	body := `{"fault_weak_row_rate": 0.5, "fault_mig_fail_rate": 0.5, "fault_tag_corrupt_rate": 0.25,
		"fault_table_corrupt_rate": 0.125, "fault_mig_retries": 2, "check_invariants": false}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	type knobs struct {
		weak, migFail, tag, table float64
		retries                   int
		invariants                bool
	}
	get := func(c config.Config) knobs {
		return knobs{c.WeakRowRate, c.MigFailRate, c.TagCorruptRate, c.TableCorruptRate, c.MigRetries, c.CheckInvariants}
	}
	for _, tc := range []struct {
		args []string
		want knobs
	}{
		{[]string{"-config", path}, knobs{0.5, 0.5, 0.25, 0.125, 2, false}},
		{[]string{"-config", path, "-fault-weak", "0.1", "-fault-table", "0", "-fault-retries", "1", "-invariants"},
			knobs{0.1, 0.5, 0.25, 0, 1, true}},
		{nil, knobs{retries: 3, invariants: true}}, // no file: Table 1 defaults
	} {
		if got := get(parseConfig(t, tc.args...)); got != tc.want {
			t.Errorf("%q: got %+v, want %+v", tc.args, got, tc.want)
		}
	}
}
