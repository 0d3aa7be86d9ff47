package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// layers are the modules self shares are reported for. Samples whose
// innermost repro/internal frame belongs to any other module count as
// "other"; samples with no such frame count as "runtime".
var layers = []string{"sim", "workload", "cpu", "cache", "core", "mc", "dram", "exp", "runtime", "other"}

const modulePrefix = "repro/internal/"

// frameLayer maps a function name from a pprof trace to its layer, or ""
// when the frame is outside repro/internal.
func frameLayer(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	mod := rest
	if i := strings.IndexAny(mod, "./"); i >= 0 {
		mod = mod[:i]
	}
	switch mod {
	case "sim", "workload", "cpu", "cache", "core", "mc", "dram", "exp":
		return mod
	}
	return "other"
}

// selfShares reads `go tool pprof -traces` output and attributes each
// sample to the innermost repro/internal frame of its stack, so runtime
// work a layer asks for (map access, allocation) counts against that
// layer. Stacks without such a frame count as runtime. It returns each
// layer's share of the total sample value (shares sum to 1) and the
// total sampled time.
func selfShares(r io.Reader) (map[string]float64, time.Duration, error) {
	totals := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	layer := ""
	inSample := false
	flush := func() {
		if !inSample {
			return
		}
		if layer == "" {
			layer = "runtime"
		}
		totals[layer] += value
		total += value
		inSample, layer = false, ""
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	started := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		if !started || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if !inSample {
			// The first line of a sample carries its value then the leaf
			// frame. Label lines ("key:  value") may precede it.
			if strings.HasSuffix(fields[0], ":") {
				continue
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, 0, fmt.Errorf("traces: bad sample value in %q: %w", line, err)
			}
			value, inSample = d, true
			fields = fields[1:]
		}
		if layer == "" && len(fields) > 0 {
			layer = frameLayer(fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	flush()
	if total <= 0 {
		return nil, 0, fmt.Errorf("traces: no samples")
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = float64(totals[l]) / float64(total)
	}
	return shares, total, nil
}
