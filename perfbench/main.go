// Command perfbench is the repository's benchmark: it regenerates three
// Section 7 sweep workloads through the public exp API and reports how
// fast the host produces them, end to end and per simulator layer. See
// README.md for the metrics, the workloads and the measured spread.
//
//	bash perfbench/run.sh --workload fig7a-single --seed 1 --seconds 10 --trace 0
//
// Each measured pass runs in a fresh child process (exp.ProfilePass
// memoizes per process, so a second pass in one process would skip the
// profile work). The parent repeats passes for --seconds, checks their
// outputs, and prints medians. With --trace 1 it also runs the isolated
// layer benchmarks and CPU-profiled passes, and prints the per-layer
// metrics instead of the end-to-end ones. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

const (
	minPasses    = 3
	maxPasses    = 40
	childTimeout = 100 * time.Second
	// tracedPasses is how many CPU-profiled passes a traced run makes;
	// their profiles are merged so the self shares rest on more samples.
	tracedPasses = 3
)

func main() {
	var (
		wl       = flag.String("workload", "", "workload: fig7a-single, mix-4core or knob-sweep")
		seedFlag = flag.String("seed", "1", "input seed (unsigned integer)")
		seconds  = flag.Float64("seconds", 10, "how long to repeat measured passes")
		trace    = flag.Int("trace", 0, "1 = print per-layer metrics from the isolated layer benchmarks and profiled passes")
		work     = flag.String("work", ".bench_build", "directory for profiles")
		child    = flag.Bool("child", false, "run one measured pass and print its report (internal)")
		isolated = flag.Bool("isolated", false, "with -child: run the isolated layer benchmarks instead")
		cpuprof  = flag.String("cpuprofile", "", "with -child: CPU-profile the measured pass into this file")
	)
	flag.Parse()
	seed, err := strconv.ParseUint(*seedFlag, 10, 64)
	if err != nil {
		fatal(fmt.Errorf("bad -seed %q: %w", *seedFlag, err))
	}
	sp, err := makeSpec(*wl, seed)
	if err != nil {
		fatal(err)
	}
	if *child {
		var rep any
		if *isolated {
			rep, err = runIsolated(sp)
		} else {
			rep, err = runPass(sp, *cpuprof)
		}
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if err := orchestrate(sp, seed, *seconds, *trace == 1, *work); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runChild runs this binary as a child process with args and decodes
// the JSON report on the last line of its output into v.
func runChild(v any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append([]string{"-child"}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	if err := json.Unmarshal(out, v); err != nil {
		return fmt.Errorf("child %v: bad report: %w", args, err)
	}
	return nil
}

// orchestrate repeats measured passes for the given time, then (when
// traced) the isolated layer benchmarks and the CPU-profiled passes,
// and prints the result.
func orchestrate(sp *spec, seed uint64, seconds float64, traced bool, work string) error {
	base := []string{"-workload", sp.name, "-seed", strconv.FormatUint(seed, 10)}
	start := time.Now()
	var passes []*passReport
	for len(passes) < minPasses || (time.Since(start).Seconds() < seconds && len(passes) < maxPasses) {
		rep := &passReport{}
		if err := runChild(rep, base...); err != nil {
			return err
		}
		passes = append(passes, rep)
	}
	res := &result{passes: passes}
	if traced {
		res.iso = &isoReport{}
		if err := runChild(res.iso, append(base, "-isolated")...); err != nil {
			return err
		}
		if err := os.MkdirAll(work, 0o755); err != nil {
			return err
		}
		var profs []string
		for i := 0; i < tracedPasses; i++ {
			prof, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("perfbench-%s-%d-%d.pprof", sp.name, seed, i)))
			if err != nil {
				return err
			}
			rep := &passReport{}
			if err := runChild(rep, append(base, "-cpuprofile", prof)...); err != nil {
				return err
			}
			res.traced = append(res.traced, rep)
			profs = append(profs, prof)
		}
		var err error
		if res.shares, res.sampled, err = profileShares(profs); err != nil {
			return err
		}
	}
	return res.print(os.Stdout, sp)
}

// profileShares runs the installed toolchain's pprof over the traced
// passes' CPU profiles, merged, and attributes their samples to layers.
func profileShares(profs []string) (map[string]float64, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", append([]string{"tool", "pprof", "-traces"}, profs...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return selfShares(bytes.NewReader(out))
}
