// Command dasbench regenerates the tables and figures of the paper's
// evaluation (Section 7). Without flags it prints the configuration
// tables; select experiments with -fig.
//
// Examples:
//
//	dasbench -fig 7a              # single-programming improvements
//	dasbench -fig all -out results.txt
//	dasbench -fig 7d -instr 2000000
//	dasbench -fig 7a -cpuprofile cpu.pprof -memprofile mem.pprof
//	dasbench -explain standard,das -out results_explain.txt
//	dasbench -energy -out results_energy.txt
//
// Figure text goes to stdout (and -out) and is byte-stable: it is the
// golden artifact asserted by internal/exp's regression tests. All
// diagnostics — per-figure wall-clock, events/sec and allocation
// footers — go to stderr only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"syscall"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dasbench: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		figs     = flag.String("fig", "tables", "comma-separated figures: 7a,7b,7c,7d,7e,7f,8,9a,9b,9c,9d,power,energy,area,table1,table2,faults,all,tables")
		energyF  = flag.Bool("energy", false, "append the perf-per-watt figure (instructions/uJ, EDP vs Standard, pJ/instr decomposition) to the selected figures")
		outPath  = flag.String("out", "", "write output to file instead of stdout")
		csvDir   = flag.String("csv-dir", "", "also write each figure's tables as CSV files (plus perf.csv) into this directory")
		benchSel = flag.String("benchmarks", "", "comma-separated benchmark subset for single-programmed figures")
		mixSel   = flag.String("mixes", "", "comma-separated mix subset (M1..M8) for multi-programmed figures")
		nopool   = flag.Bool("nopool", false, "build a fresh machine per run instead of reusing pooled ones (output is byte-identical either way; this flag exists so scripts can prove it)")

		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile (pprof) covering all selected figures to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (pprof) taken after all figures to this file")
		traceFile = flag.String("trace", "", "write a runtime execution trace covering all selected figures to this file")

		// Telemetry (off by default; enabling it never changes figure
		// output — golden and determinism tests run with it on).
		metricsOut  = flag.String("metrics-out", "", "write per-run epoch metric timelines to this file (.json = JSON, anything else = CSV)")
		timelineOut = flag.String("timeline", "", "write simulated DRAM/migration/fault events as Chrome trace-event JSON (load in Perfetto or chrome://tracing) to this file")
		epochMS     = flag.Float64("timeline-interval", 0.1, "metric snapshot epoch in simulated milliseconds")
		httpAddr    = flag.String("http", "", "serve live profiling (/debug/pprof) on this address, e.g. :8080")
		reqTraceN   = flag.Int("reqtrace", 0, "trace one in N measured demand loads per core through the hierarchy (0 = off; never changes figure output)")
		reqTraceOut = flag.String("reqtrace-out", "", "write per-run latency-attribution waterfalls to this file (.json = JSON, anything else = CSV)")
		explainSel  = flag.String("explain", "", "two designs 'A,B' (e.g. standard,das): run both with request tracing and print a ranked why-A≠B attribution report")
	)
	configFlags(flag.CommandLine)
	flag.Parse()
	cfg, err := configure(flag.CommandLine)
	if err != nil {
		return err
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer trace.Stop()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC() // profile live objects, not transients
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	s := exp.NewSession(cfg)
	s.DisablePool = *nopool
	if *benchSel != "" {
		s.Benchmarks = strings.Split(*benchSel, ",")
	}
	if *mixSel != "" {
		s.Mixes = strings.Split(*mixSel, ",")
	}
	var explainA, explainB core.Design
	if *explainSel != "" {
		// Parse up front so a bad design pair fails before any figure runs.
		var err error
		if explainA, explainB, err = parseExplain(*explainSel); err != nil {
			return err
		}
	}
	traceEvery := *reqTraceN
	if *explainSel != "" && traceEvery <= 0 {
		traceEvery = 1 // -explain needs the flight recorder; default to every load
	}
	if *metricsOut != "" || *timelineOut != "" || traceEvery > 0 {
		s.Observe = &exp.ObserveOptions{
			Metrics:    *metricsOut != "",
			Trace:      *timelineOut != "",
			IntervalPS: int64(*epochMS * 1e9),
			ReqTraceN:  traceEvery,
		}
	}
	if *httpAddr != "" {
		dbg, addr, err := telemetry.ServeDebug(*httpAddr)
		if err != nil {
			return err
		}
		log.Printf("debug endpoint: http://%s/debug/pprof/", addr)
		defer dbg.Shutdown(context.Background())
	}

	// Ctrl-C / SIGTERM cancels the in-flight figure promptly: the session
	// context is polled inside every run at the observation stride, so a
	// signal aborts mid-simulation instead of waiting for the figure to
	// finish, and the sink writers further down still run, flushing
	// whatever completed instead of dropping it. A second signal kills
	// the process via the default handler (stop() reinstalls it).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	s.Ctx = ctx

	wanted := strings.Split(*figs, ",")
	if *figs == "all" {
		wanted = []string{"table1", "table2", "area", "7a", "7b", "7c", "7d", "7e", "7f", "8", "9a", "9b", "9c", "9d", "power"}
	} else if *figs == "tables" {
		wanted = []string{"table1", "table2", "area"}
	}
	if *explainSel != "" && !flagVisited("fig") {
		wanted = nil // -explain alone skips the default tables
	}
	if *energyF {
		// Deliberately not part of "all": the committed results_*.txt
		// goldens predate the energy model and must stay byte-identical.
		if !flagVisited("fig") && *explainSel == "" {
			wanted = nil // -energy alone skips the default tables
		}
		wanted = append(wanted, "energy")
	}

	perfCSV := "figure,wall_seconds,events,events_per_sec,alloc_bytes,alloc_objects\n"
	for _, name := range wanted {
		if ctx.Err() != nil {
			log.Print("interrupted; flushing sinks")
			break
		}
		name = strings.TrimSpace(strings.ToLower(name))
		fig, err := s.Measured(func() (*exp.Figure, error) { return s.Figure(name) })
		if err != nil {
			if errors.Is(err, context.Canceled) {
				log.Printf("%s: interrupted mid-figure; flushing sinks", name)
				break
			}
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprint(out, fig.Render())
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, fig); err != nil {
				return err
			}
		}
		log.Printf("%s: %s", fig.ID, fig.Perf)
		perfCSV += fmt.Sprintf("%s,%.3f,%d,%.0f,%d,%d\n",
			fig.ID, fig.Perf.Wall.Seconds(), fig.Perf.Events,
			fig.Perf.EventsPerSec(), fig.Perf.AllocBytes, fig.Perf.AllocObjects)
	}
	if *explainSel != "" && ctx.Err() == nil {
		fig, err := s.Measured(func() (*exp.Figure, error) { return s.Explain(explainA, explainB) })
		if err != nil && errors.Is(err, context.Canceled) {
			log.Print("explain: interrupted; flushing sinks")
		} else if err != nil {
			return fmt.Errorf("explain: %w", err)
		} else {
			fmt.Fprint(out, fig.Render())
			if *csvDir != "" {
				if err := writeCSVs(*csvDir, fig); err != nil {
					return err
				}
			}
			log.Printf("%s: %s", fig.ID, fig.Perf)
			perfCSV += fmt.Sprintf("%s,%.3f,%d,%.0f,%d,%d\n",
				fig.ID, fig.Perf.Wall.Seconds(), fig.Perf.Events,
				fig.Perf.EventsPerSec(), fig.Perf.AllocBytes, fig.Perf.AllocObjects)
		}
	}
	if *csvDir != "" {
		if err := os.WriteFile(filepath.Join(*csvDir, "perf.csv"), []byte(perfCSV), 0o644); err != nil {
			return err
		}
	}
	if *reqTraceOut != "" {
		if err := writeSink(*reqTraceOut, func(w io.Writer) error {
			if strings.HasSuffix(*reqTraceOut, ".json") {
				return s.WriteReqTraceJSON(w)
			}
			return s.WriteReqTraceCSV(w)
		}); err != nil {
			return fmt.Errorf("reqtrace-out: %w", err)
		}
	}
	if *metricsOut != "" {
		if err := writeSink(*metricsOut, func(w io.Writer) error {
			if strings.HasSuffix(*metricsOut, ".json") {
				return s.WriteTimelineJSON(w)
			}
			return s.WriteTimelineCSV(w)
		}); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	if *timelineOut != "" {
		if err := writeSink(*timelineOut, s.WriteTrace); err != nil {
			return fmt.Errorf("timeline: %w", err)
		}
	}
	return nil
}

// configFlags registers the flags that build the run's config on fs.
func configFlags(fs *flag.FlagSet) {
	fs.String("config", "", "JSON config file (default: episode-scaled Table 1)")
	fs.Bool("full-scale", false, "use the full 8 GB Table 1 memory instead of the episode-scaled 1 GB")
	fs.Uint64("instr", 0, "instructions per core (0 = config default)")
	fs.Uint64("seed", 0, "override workload seed")

	// Fault injection (DAS management path; all rates zero = perfect
	// device). The -fig faults sweep varies these itself.
	fs.Float64("fault-weak", 0, "fraction of fast-subarray rows that are weak (served at slow timing, never promoted into)")
	fs.Float64("fault-migfail", 0, "probability an in-flight migration fails and is retried")
	fs.Float64("fault-tag", 0, "probability a tag-cache hit is parity-corrupt and re-fetched")
	fs.Float64("fault-table", 0, "probability a fetched table block fails ECC and is re-fetched")
	fs.Int("fault-retries", -1, "failed-migration retries before pinning the row slow (-1 = config default)")
	fs.Uint64("fault-seed", 0, "fault-stream seed (0 = derive from workload seed)")
	fs.Bool("invariants", true, "verify management invariants after every committed swap")
}

// configure builds the run's config from the parsed configFlags: the
// -config file (or the episode-scaled / -full-scale Table 1 default),
// then each config flag given on the command line. A flag left out
// never overwrites a value the file set.
func configure(fs *flag.FlagSet) (config.Config, error) {
	get := func(f *flag.Flag) any { return f.Value.(flag.Getter).Get() }
	cfg := config.Scaled()
	if get(fs.Lookup("full-scale")).(bool) {
		cfg = config.Default()
	}
	if path := get(fs.Lookup("config")).(string); path != "" {
		c, err := config.Load(path)
		if err != nil {
			return cfg, err
		}
		cfg = c
	}
	fs.Visit(func(f *flag.Flag) {
		switch v := get(f); f.Name {
		case "instr":
			if n := v.(uint64); n > 0 {
				cfg.InstrPerCore = n
			}
		case "seed":
			if n := v.(uint64); n > 0 {
				cfg.Seed = n
			}
		case "fault-weak":
			cfg.WeakRowRate = v.(float64)
		case "fault-migfail":
			cfg.MigFailRate = v.(float64)
		case "fault-tag":
			cfg.TagCorruptRate = v.(float64)
		case "fault-table":
			cfg.TableCorruptRate = v.(float64)
		case "fault-retries":
			if n := v.(int); n >= 0 {
				cfg.MigRetries = n
			}
		case "fault-seed":
			if n := v.(uint64); n > 0 {
				cfg.FaultSeed = n
			}
		case "invariants":
			cfg.CheckInvariants = v.(bool)
		}
	})
	return cfg, cfg.Validate()
}

// flagVisited reports whether the named flag was set on the command line.
func flagVisited(name string) bool {
	seen := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			seen = true
		}
	})
	return seen
}

// parseExplain parses the -explain "A,B" design pair.
func parseExplain(sel string) (core.Design, core.Design, error) {
	parts := strings.Split(sel, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("explain: want two designs 'A,B', got %q", sel)
	}
	da, err := core.ParseDesign(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("explain: %w", err)
	}
	db, err := core.ParseDesign(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, fmt.Errorf("explain: %w", err)
	}
	return da, db, nil
}

// writeSink creates path and streams one telemetry sink into it.
func writeSink(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSVs dumps each of a figure's tables as <dir>/<figID>[-i].csv.
func writeCSVs(dir string, fig *exp.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, tbl := range fig.Tables {
		name := fig.ID
		if len(fig.Tables) > 1 {
			name = fmt.Sprintf("%s-%d", fig.ID, i+1)
		}
		path := filepath.Join(dir, name+".csv")
		if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
