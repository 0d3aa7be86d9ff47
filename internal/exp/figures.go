package exp

import (
	"fmt"
	"strings"

	"repro/internal/area"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure is one regenerated table or figure of the paper.
type Figure struct {
	ID     string
	Title  string
	Tables []*stats.Table

	// Perf is attached by Session.Measured. It is intentionally NOT part
	// of Render: figure text is golden output.
	Perf *Perf
}

// Render returns the figure as text.
func (f *Figure) Render() string {
	out := fmt.Sprintf("### %s — %s\n\n", f.ID, f.Title)
	for _, t := range f.Tables {
		out += t.Render() + "\n"
	}
	return out
}

// figureDef is one catalog entry: the runs a figure needs, declared as
// its plan's columns over the single-program or mix rows, and how the
// filled plan renders.
type figureDef struct {
	name  string
	cols  func(s *Session) []planCol // nil: a static table, no runs
	mixes bool                       // rows are the mixes, not single benchmarks
	base  bool                       // each row also needs its Standard baseline
	// extra marks figures outside dasbench's "-fig all": the committed
	// results_*.txt goldens predate them and must stay byte-identical.
	extra  bool
	render func(s *Session, p *plan) (*Figure, error)
}

// catalog is every figure Figure dispatches, in presentation order.
var catalog = []figureDef{
	{name: "table1", render: func(s *Session, _ *plan) (*Figure, error) { return Table1(s.Cfg), nil }},
	{name: "table2", render: func(*Session, *plan) (*Figure, error) { return Table2(), nil }},
	{name: "area", render: func(*Session, *plan) (*Figure, error) { return AreaFigure(), nil }},
	{name: "7a", cols: comparison, base: true,
		render: renderSpeedup("Fig7a", "Single-programming performance improvements", improvementCaption)},
	{name: "7b", cols: designs(core.DAS), render: renderBehaviour("Fig7b", "Single-programming MPKI, PPKM and footprints")},
	{name: "7c", cols: designs(core.SAS, core.DAS),
		render: renderLocation("Fig7c", "Single-programming access locations (static vs dynamic)")},
	{name: "7d", cols: comparison, mixes: true, base: true,
		render: renderSpeedup("Fig7d", "Multi-programming performance improvements", improvementCaption)},
	{name: "7e", cols: designs(core.DAS), mixes: true, render: renderBehaviour("Fig7e", "Multi-programming MPKI, PPKM and footprints")},
	{name: "7f", cols: designs(core.SAS, core.DAS), mixes: true,
		render: renderLocation("Fig7f", "Multi-programming access locations (static vs dynamic)")},
	{name: "8", cols: sweep(FilterThresholds, "thr=%d", func(c *config.Config, v int) { c.FilterThreshold = v }), base: true,
		render: renderFig8},
	{name: "9a", cols: tagCacheSweep, base: true, render: renderSpeedup("Fig9a", "Translation cache capacities", "")},
	{name: "9b", cols: sweep(GroupSizes, "%d-row", func(c *config.Config, v int) { c.GroupSize = v }), base: true,
		render: renderSpeedup("Fig9b", "Migration group sizes", "")},
	{name: "9c", cols: sweep(FastRatios, "1/%d", func(c *config.Config, v int) { c.FastDenom, c.Replacement = v, "random" }), base: true,
		render: renderSpeedup("Fig9c", "Fast-level capacity ratios, random replacement", "")},
	{name: "9d", cols: sweep(FastRatios, "1/%d", func(c *config.Config, v int) { c.FastDenom, c.Replacement = v, "lru" }), base: true,
		render: renderSpeedup("Fig9d", "Fast-level capacity ratios, lru replacement", "")},
	{name: "power", cols: designs(core.SAS, core.CHARM, core.DAS, core.FS), base: true, render: renderPower},
	{name: "energy", cols: designs(core.AllDesigns()...), base: true, extra: true, render: renderEnergy},
	{name: "faults", cols: faultSweeps, base: true, extra: true, render: renderFaults},
}

// FigureNames lists every name Figure dispatches, in presentation
// order. "tables" and "all" are the dasbench aliases FigureGroup
// expands, not dispatchable names, so they are absent here.
func FigureNames() []string {
	var names []string
	for _, f := range catalog {
		names = append(names, f.name)
	}
	return names
}

// FigureGroup expands a dasbench -fig alias from the catalog: "all" is
// every figure but the extras (energy, faults), "tables" every entry
// that runs no simulation. Any other name returns nil.
func FigureGroup(alias string) []string {
	var names []string
	for _, f := range catalog {
		if (alias == "all" && !f.extra) || (alias == "tables" && f.cols == nil) {
			names = append(names, f.name)
		}
	}
	return names
}

// lookup returns the catalog entry for name, or nil.
func lookup(name string) *figureDef {
	for i := range catalog {
		if catalog[i].name == name {
			return &catalog[i]
		}
	}
	return nil
}

// Figure regenerates one catalog figure: its plan, filled, rendered. It
// is the single entry point shared by the CLI (dasbench -fig) and the
// serving layer (dasserve requests), so both expose exactly the same
// catalog.
func (s *Session) Figure(name string) (*Figure, error) {
	f := lookup(name)
	if f == nil {
		return nil, fmt.Errorf("unknown figure %q", name)
	}
	var p *plan
	if f.cols != nil {
		var err error
		if p, err = f.plan(s); err != nil {
			return nil, err
		}
		if err := s.fill(p); err != nil {
			return nil, err
		}
	}
	return f.render(s, p)
}

// plan lists the runs a figure needs: one row per benchmark set, one
// column per (config, design) run over every row, and whether each row
// also needs its Standard baseline. fill runs it; a render reads only
// the filled results.
type plan struct {
	rows []planRow
	cols []planCol
	base bool

	// Filled by fill, indexed like rows and cols.
	std []*Result   // each row's Standard baseline, when base
	res [][]*Result // [row][col]
}

type planRow struct {
	name string
	set  []string
}

type planCol struct {
	name   string // the column header
	cfg    config.Config
	design core.Design
}

// header is a plan's table header: "workload", then each column's name.
func (p *plan) header() []string {
	h := []string{"workload"}
	for _, c := range p.cols {
		h = append(h, c.name)
	}
	return h
}

// plan builds f's plan over the session's workload lists. An unknown
// mix name fails here, before any run starts.
func (f *figureDef) plan(s *Session) (*plan, error) {
	rows, err := s.singleRows(), error(nil)
	if f.mixes {
		rows, err = s.mixRows()
	}
	return &plan{rows: rows, cols: f.cols(s), base: f.base}, err
}

// singleRows is one row per single-programmed benchmark of the session:
// its Benchmarks override, else the Table 2 catalog.
func (s *Session) singleRows() []planRow {
	names := s.Benchmarks
	if len(names) == 0 {
		names = workload.AllSingleNames()
	}
	var rows []planRow
	for _, n := range names {
		rows = append(rows, planRow{n, []string{n}})
	}
	return rows
}

// mixRows is one row per M1-M8 mix (or the session's Mixes override).
func (s *Session) mixRows() ([]planRow, error) {
	mixes := workload.Mixes()
	if len(s.Mixes) > 0 {
		mixes = nil
		for _, name := range s.Mixes {
			m, err := workload.LookupMix(name)
			if err != nil {
				return nil, err
			}
			mixes = append(mixes, m)
		}
	}
	var rows []planRow
	for _, m := range mixes {
		rows = append(rows, planRow{m.Name, m.Benchmarks})
	}
	return rows, nil
}

// run is one simulation a plan needs.
type run struct {
	label  string // "row/column", for error context
	cfg    config.Config
	design core.Design
	set    []string
}

// runs lists p's distinct simulations in row-major order, each row's
// baseline first, and for every cell the index of the run it reads
// (std[r] is -1 without baselines). Cells that land in one memo slot —
// a Standard column and the baseline, sweep points the scaled config
// collapses onto one value — share a run, exactly as Cached would.
func (s *Session) runs(p *plan) (runs []run, std []int, cells [][]int) {
	at := make(map[string]int)
	slot := func(label string, cfg config.Config, d core.Design, set []string) int {
		key := "std|" + wkey(set) // Cached sends Standard to the per-set baseline
		if d != core.Standard {
			key = resultKey(cfg, d, set)
		}
		i, ok := at[key]
		if !ok {
			i = len(runs)
			at[key] = i
			runs = append(runs, run{label, cfg, d, set})
		}
		return i
	}
	std = make([]int, len(p.rows))
	cells = make([][]int, len(p.rows))
	for r, row := range p.rows {
		std[r] = -1
		if p.base {
			std[r] = slot(row.name+"/Standard", s.Cfg, core.Standard, row.set)
		}
		for _, c := range p.cols {
			cells[r] = append(cells[r], slot(row.name+"/"+c.name, c.cfg, c.design, row.set))
		}
	}
	return runs, std, cells
}

// fill runs every simulation p needs through runAll, so figures honour
// Session.Parallelism, and stores the results by index: renders never
// depend on completion order. runAll starts runs in plan order and
// starts none after a failure, so the returned error is always the
// lowest-index failing run's.
func (s *Session) fill(p *plan) error {
	runs, std, cells := s.runs(p)
	out := make([]*Result, len(runs))
	jobs := make([]job, len(runs))
	for i, r := range runs {
		jobs[i] = func() error {
			res, err := s.Cached(r.cfg, r.design, r.set)
			if err != nil {
				return fmt.Errorf("%s: %w", r.label, err)
			}
			out[i] = res
			return nil
		}
	}
	if err := s.runAll(jobs); err != nil {
		return err
	}
	p.std = make([]*Result, len(p.rows))
	p.res = make([][]*Result, len(p.rows))
	for r := range p.rows {
		if std[r] >= 0 {
			p.std[r] = out[std[r]]
		}
		for _, i := range cells[r] {
			p.res[r] = append(p.res[r], out[i])
		}
	}
	return nil
}

// designs is one column per design at the session config, headed by the
// design's name as the figures print it (without the space in
// "DAS-DRAM (FM)").
func designs(ds ...core.Design) func(*Session) []planCol {
	return func(s *Session) []planCol {
		var cols []planCol
		for _, d := range ds {
			cols = append(cols, planCol{strings.ReplaceAll(d.String(), " ", ""), s.Cfg, d})
		}
		return cols
	}
}

// comparison is Figure 7a/7d's five designs compared with Standard.
var comparison = designs(core.SAS, core.CHARM, core.DAS, core.DASFM, core.FS)

// sweep is one DAS-DRAM column per value of a knob that set applies to
// the session config, headed by the value printed with format.
func sweep[T any](vals []T, format string, set func(*config.Config, T)) func(*Session) []planCol {
	return func(s *Session) []planCol {
		var cols []planCol
		for _, v := range vals {
			cfg := s.Cfg
			set(&cfg, v)
			cols = append(cols, planCol{fmt.Sprintf(format, v), cfg, core.DAS})
		}
		return cols
	}
}

// FilterThresholds is the Figure 8 sweep.
var FilterThresholds = []int{1, 2, 4, 8}

// TagCachePaperKB is the Figure 9a sweep in the paper's full-scale
// capacities; the harness scales them with simulated memory.
var TagCachePaperKB = []int{32, 64, 128, 256}

// tagCacheSweep is Figure 9a's columns: TagCachePaperKB scaled to the
// session's memory (at least 1 KB), headed with both sizes.
func tagCacheSweep(s *Session) []planCol {
	var cols []planCol
	for _, kb := range TagCachePaperKB {
		cfg := s.Cfg
		cfg.TagCacheKB = max(1, int(float64(kb)*s.Cfg.MemoryScale()))
		cols = append(cols, planCol{fmt.Sprintf("%dKB(=%dKB@8GB)", cfg.TagCacheKB, kb), cfg, core.DAS})
	}
	return cols
}

// GroupSizes is the Figure 9b sweep.
var GroupSizes = []int{8, 16, 32, 64}

// FastRatios is the Figure 9c/9d sweep (denominators of the fast-level
// capacity ratio).
var FastRatios = []int{32, 16, 8, 4}

const improvementCaption = "Performance improvement over Standard (homogeneous) DRAM."

// speedupTable is a row per workload of each column's performance
// improvement over the baseline, gmean last.
func speedupTable(id, title string, p *plan) (*stats.Table, error) {
	tbl := &stats.Table{Title: title, Header: p.header()}
	ratios := make([][]float64, len(p.cols))
	for r, row := range p.rows {
		cells := []string{row.name}
		for c, res := range p.res[r] {
			ratio := res.Speedup(p.std[r])
			ratios[c] = append(ratios[c], ratio)
			cells = append(cells, fmt.Sprintf("%+.2f%%", (ratio-1)*100))
		}
		tbl.AddRow(cells...)
	}
	gm := []string{"gmean"}
	for c, col := range p.cols {
		imp, err := stats.GmeanImprovementErr(ratios[c])
		if err != nil {
			return nil, fmt.Errorf("%s: %s gmean: %w", id, col.name, err)
		}
		gm = append(gm, fmt.Sprintf("%+.2f%%", imp))
	}
	tbl.AddRow(gm...)
	return tbl, nil
}

// renderSpeedup renders a one-table improvement figure: Figure 7a/7d
// (each design over Standard) and 9a-9d (DAS-DRAM per sweep point).
func renderSpeedup(id, title, caption string) func(*Session, *plan) (*Figure, error) {
	return func(_ *Session, p *plan) (*Figure, error) {
		tbl, err := speedupTable(id, title, p)
		if err != nil {
			return nil, err
		}
		tbl.Caption = caption
		return &Figure{ID: id, Title: title, Tables: []*stats.Table{tbl}}, nil
	}
}

// renderBehaviour renders Figure 7b/7e: MPKI, PPKM and footprint per
// workload under DAS-DRAM.
func renderBehaviour(id, title string) func(*Session, *plan) (*Figure, error) {
	return func(_ *Session, p *plan) (*Figure, error) {
		tbl := &stats.Table{
			Title:  title,
			Header: []string{"workload", "MPKI", "PPKM", "footprint(MB)"},
		}
		for r, row := range p.rows {
			res := p.res[r][0]
			var mpki, ppkm, fp float64
			for _, c := range res.PerCore {
				mpki += c.MPKI
				ppkm += c.PPKM
				fp += c.FootprintMB
			}
			n := float64(len(res.PerCore))
			tbl.AddRow(row.name, fmt.Sprintf("%.1f", mpki/n), fmt.Sprintf("%.1f", ppkm/n),
				fmt.Sprintf("%.0f", fp))
		}
		tbl.Caption = "Measured under DAS-DRAM; MPKI/PPKM are per-core means, footprint is the set total."
		return &Figure{ID: id, Title: title, Tables: []*stats.Table{tbl}}, nil
	}
}

// renderLocation renders Figure 7c/7f: the access-location distribution
// of a static design (SAS) and the dynamic design (DAS).
func renderLocation(id, title string) func(*Session, *plan) (*Figure, error) {
	return func(_ *Session, p *plan) (*Figure, error) {
		tbl := &stats.Table{
			Title: title,
			Header: []string{"workload",
				"static rb", "static fast", "static slow",
				"dynamic rb", "dynamic fast", "dynamic slow"},
		}
		for r, row := range p.rows {
			srb, sf, ss := p.res[r][0].Access.Fractions()
			drb, df, ds := p.res[r][1].Access.Fractions()
			tbl.AddRow(row.name,
				stats.Percent(srb), stats.Percent(sf), stats.Percent(ss),
				stats.Percent(drb), stats.Percent(df), stats.Percent(ds))
		}
		tbl.Caption = "Share of demand DRAM accesses served by the row buffer, fast level and slow level."
		return &Figure{ID: id, Title: title, Tables: []*stats.Table{tbl}}, nil
	}
}

// renderFig8 renders Figure 8, the filtering-policy sweep: performance
// improvement (8a), fast-level miss ratio (8b) and promotions per access
// (8c) per threshold.
func renderFig8(_ *Session, p *plan) (*Figure, error) {
	perf, err := speedupTable("Fig8", "Fig 8a: performance improvement", p)
	if err != nil {
		return nil, err
	}
	miss := &stats.Table{Title: "Fig 8b: fast-level miss ratio", Header: perf.Header}
	prom := &stats.Table{Title: "Fig 8c: row promotions / memory access", Header: perf.Header}
	for r, row := range p.rows {
		mRow, cRow := []string{row.name}, []string{row.name}
		for _, res := range p.res[r] {
			mRow = append(mRow, stats.Percent(res.Access.FastLevelMissRatio()))
			cRow = append(cRow, stats.Percent(res.PromPerAccess))
		}
		miss.AddRow(mRow...)
		prom.AddRow(cRow...)
	}
	return &Figure{
		ID:     "Fig8",
		Title:  "Filtering policies for row promotion",
		Tables: []*stats.Table{perf, miss, prom},
	}, nil
}

// renderPower renders the Section 7.7 discussion as a table: the
// relative DRAM array-energy proxy of each design.
func renderPower(_ *Session, p *plan) (*Figure, error) {
	tbl := &stats.Table{
		Title:  "Relative DRAM access-energy proxy (Standard = 1.00)",
		Header: p.header(),
	}
	for r, row := range p.rows {
		cells := []string{row.name}
		for _, res := range p.res[r] {
			cells = append(cells, fmt.Sprintf("%.3f", res.EnergyProxy/p.std[r].EnergyProxy))
		}
		tbl.AddRow(cells...)
	}
	tbl.Caption = "Energy proxy: slow activate-restore cycle = 1, fast cycle = 0.45, column burst = 0.25, migration = 4 (Section 7.7)."
	return &Figure{ID: "Power", Title: "Power implications (Section 7.7)", Tables: []*stats.Table{tbl}}, nil
}

// renderEnergy renders the perf-per-watt comparison of all six designs
// under the analytical energy model (internal/energy): instructions per
// microjoule of DRAM energy, energy-delay product relative to Standard,
// and a per-command pJ/instruction decomposition. Pure accounting over
// runs the other figures already share — rendering it never changes any
// command stream or figure byte.
func renderEnergy(_ *Session, p *plan) (*Figure, error) {
	perWatt := &stats.Table{
		Title:  "Perf/watt: instructions per microjoule of DRAM energy",
		Header: p.header(),
	}
	edp := &stats.Table{
		Title:  "Energy-delay product relative to Standard (lower is better)",
		Header: p.header(),
	}
	ipuj := make([][]float64, len(p.cols))
	edps := make([][]float64, len(p.cols))
	// Per-design component accumulation (exact integer pJ) for the
	// decomposition table.
	sumE := make([]energy.Breakdown, len(p.cols))
	sumInstr := make([]uint64, len(p.cols))
	for r, row := range p.rows {
		base := p.std[r]
		baseEDP := float64(base.Energy.TotalPJ()) * base.SimulatedNS
		pRow, eRow := []string{row.name}, []string{row.name}
		for c, res := range p.res[r] {
			uj := float64(res.Energy.TotalPJ()) / 1e6
			perUJ := 0.0
			if uj > 0 {
				perUJ = float64(res.InstrsTotal) / uj
			}
			rel := 0.0
			if baseEDP > 0 {
				rel = float64(res.Energy.TotalPJ()) * res.SimulatedNS / baseEDP
			}
			ipuj[c] = append(ipuj[c], perUJ)
			edps[c] = append(edps[c], rel)
			pRow = append(pRow, fmt.Sprintf("%.0f", perUJ))
			eRow = append(eRow, fmt.Sprintf("%.3f", rel))
			accumulateBreakdown(&sumE[c], res.Energy)
			sumInstr[c] += res.InstrsTotal
		}
		perWatt.AddRow(pRow...)
		edp.AddRow(eRow...)
	}
	pGm, eGm := []string{"gmean"}, []string{"gmean"}
	for c, col := range p.cols {
		g, err := stats.GmeanErr(ipuj[c])
		if err != nil {
			return nil, fmt.Errorf("energy: %s instr/uJ gmean: %w", col.name, err)
		}
		pGm = append(pGm, fmt.Sprintf("%.0f", g))
		g, err = stats.GmeanErr(edps[c])
		if err != nil {
			return nil, fmt.Errorf("energy: %s EDP gmean: %w", col.name, err)
		}
		eGm = append(eGm, fmt.Sprintf("%.3f", g))
	}
	perWatt.AddRow(pGm...)
	edp.AddRow(eGm...)
	perWatt.Caption = "DRAM energy = per-command dynamic energy (bitline-length scaled) + background power over the simulated interval."
	edp.Caption = "EDP = total DRAM energy x simulated time, normalized to the Standard run of the same workload."

	decomp := &stats.Table{
		Title: "DRAM energy decomposition (pJ per instruction, summed over workloads)",
		Header: []string{"design", "act", "pre", "rd", "wr",
			"ref", "mig", "background", "total"},
	}
	for c, col := range p.cols {
		b := sumE[c]
		per := func(pj int64) string {
			if sumInstr[c] == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", float64(pj)/float64(sumInstr[c]))
		}
		decomp.AddRow(col.name,
			per(b.ActSlowPJ+b.ActFastPJ), per(b.PreSlowPJ+b.PreFastPJ),
			per(b.RdSlowPJ+b.RdFastPJ), per(b.WrSlowPJ+b.WrFastPJ),
			per(b.RefPJ), per(b.MigPJ), per(b.BackgroundPJ), per(b.TotalPJ()))
	}
	decomp.Caption = "Fast-subarray commands are cheaper per event (shorter bitlines); migrations and translation traffic add energy the latency figures do not show."
	return &Figure{
		ID:     "Energy",
		Title:  "Performance per watt (analytical energy model)",
		Tables: []*stats.Table{perWatt, edp, decomp},
	}, nil
}

// accumulateBreakdown adds b into dst field by field (exact integer pJ).
func accumulateBreakdown(dst *energy.Breakdown, b energy.Breakdown) {
	dst.ActSlowPJ += b.ActSlowPJ
	dst.ActFastPJ += b.ActFastPJ
	dst.PreSlowPJ += b.PreSlowPJ
	dst.PreFastPJ += b.PreFastPJ
	dst.RdSlowPJ += b.RdSlowPJ
	dst.RdFastPJ += b.RdFastPJ
	dst.WrSlowPJ += b.WrSlowPJ
	dst.WrFastPJ += b.WrFastPJ
	dst.RefPJ += b.RefPJ
	dst.MigPJ += b.MigPJ
	dst.BackgroundPJ += b.BackgroundPJ
}

// designPlan is a single-design run: design over one benchmark set (one
// core per benchmark) against its Standard baseline.
func (s *Session) designPlan(design core.Design, benchmarks []string) *plan {
	return &plan{
		rows: []planRow{{wkey(benchmarks), benchmarks}},
		cols: designs(design)(s),
		base: true,
	}
}

// DesignFigure runs one design over one benchmark set (one core per
// benchmark) and renders it against the Standard baseline: the smallest
// servable unit of work, and the request shape dasserve caches most
// often.
func (s *Session) DesignFigure(design core.Design, benchmarks []string) (*Figure, error) {
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("exp: design run needs at least one benchmark")
	}
	p := s.designPlan(design, benchmarks)
	if err := s.fill(p); err != nil {
		return nil, err
	}
	base, res := p.std[0], p.res[0][0]
	tbl := &stats.Table{
		Title:  fmt.Sprintf("%v over %s", design, wkey(benchmarks)),
		Header: []string{"core", "benchmark", "IPC", "improvement", "rb", "fast", "slow"},
	}
	rb, fast, slow := res.Access.Fractions()
	for i, c := range res.PerCore {
		imp := (c.IPC/base.PerCore[i].IPC - 1) * 100
		loc := []string{"", "", ""}
		if i == 0 { // access locations are system-wide, print once
			loc = []string{stats.Percent(rb), stats.Percent(fast), stats.Percent(slow)}
		}
		tbl.AddRow(fmt.Sprintf("%d", i), c.Benchmark,
			fmt.Sprintf("%.3f", c.IPC), fmt.Sprintf("%+.2f%%", imp),
			loc[0], loc[1], loc[2])
	}
	if design != core.Standard {
		tbl.AddRow("", "mean", "", fmt.Sprintf("%+.2f%%", res.Improvement(base)), "", "", "")
	}
	tbl.Caption = "Improvement is per-core IPC versus the Standard baseline of the same benchmarks."
	return &Figure{ID: "Run", Title: tbl.Title, Tables: []*stats.Table{tbl}}, nil
}

// Table1 renders the system configuration (Table 1).
func Table1(cfg config.Config) *Figure {
	tbl := &stats.Table{Title: "System configuration", Header: []string{"component", "setting"}}
	tbl.AddRow("Processor", fmt.Sprintf("%d core(s), %.0f GHz, %d-wide, %d-entry ROB", cfg.Cores, cfg.CPUGHz, cfg.Width, cfg.ROB))
	tbl.AddRow("L1", fmt.Sprintf("%d KB, %d-way, %d cycles", cfg.L1KB, cfg.L1Assoc, cfg.L1Latency))
	tbl.AddRow("L2", fmt.Sprintf("%d KB, %d-way, +%d cycles", cfg.L2KB, cfg.L2Assoc, cfg.L2Latency))
	tbl.AddRow("LLC", fmt.Sprintf("%d KB shared, %d-way, +%d cycles", cfg.LLCKB, cfg.LLCAssoc, cfg.LLCLatency))
	tbl.AddRow("Controller", fmt.Sprintf("%d-entry window, open-page FR-FCFS", cfg.WindowSize))
	geom := cfg.Geometry()
	tbl.AddRow("DRAM", fmt.Sprintf("%d MB: %d channels x %d ranks x %d banks x %d rows x %d B rows",
		geom.Capacity()>>20, cfg.Channels, cfg.Ranks, cfg.Banks, cfg.RowsPerBank, geom.RowBytes()))
	tbl.AddRow("Timing (slow)", "tRCD 13.75 ns, tRC 48.75 ns (DDR3-1600)")
	tbl.AddRow("Timing (fast)", "tRCD 8.75 ns, tRC 25 ns")
	tbl.AddRow("Asym. DRAM", fmt.Sprintf("fast level 1/%d, %d-row groups, migration %.2f ns, tag cache %d KB, filter threshold %d, %s replacement",
		cfg.FastDenom, cfg.GroupSize, cfg.MigrationLatencyNS, cfg.TagCacheKB, cfg.FilterThreshold, cfg.Replacement))
	tbl.AddRow("Protocol", fmt.Sprintf("%d instructions/core, first %.0f%% warm-up", cfg.InstrPerCore, cfg.WarmupFrac*100))
	return &Figure{ID: "Table1", Title: "System configuration (Table 1)", Tables: []*stats.Table{tbl}}
}

// Table2 renders the workload list (Table 2).
func Table2() *Figure {
	single := &stats.Table{Title: "Single-programming workloads", Header: []string{"benchmark", "MPKI target", "footprint", "mixture"}}
	for _, p := range workload.Catalog() {
		mix := ""
		for _, c := range []struct {
			n string
			w float64
		}{{"local", p.LocalWeight}, {"stream", p.StreamWeight}, {"stride", p.StrideWeight}, {"hot", p.HotWeight}, {"chase", p.ChaseWeight}} {
			if c.w > 0 {
				mix += fmt.Sprintf("%s %.3f ", c.n, c.w)
			}
		}
		single.AddRow(p.Name, fmt.Sprintf("mem %.0f%%", p.MemFraction*100),
			fmt.Sprintf("%d MB", p.FootprintBytes>>20), mix)
	}
	multi := &stats.Table{Title: "Multi-programming workloads", Header: []string{"set", "benchmarks"}}
	for _, m := range workload.Mixes() {
		multi.AddRow(m.Name, fmt.Sprintf("%v", m.Benchmarks))
	}
	return &Figure{ID: "Table2", Title: "Target workloads (Table 2)", Tables: []*stats.Table{single, multi}}
}

// AreaFigure renders the Section 4.3 / 7.6 area numbers.
func AreaFigure() *Figure {
	tbl := &stats.Table{Title: "Die-area overheads", Header: []string{"design", "model", "paper"}}
	p := area.Default()
	tbl.AddRow("DAS-DRAM 1:2 reduced interleaving (fast ~1/8)", stats.Percent(p.Overhead()), "6.6%")
	if o, err := p.OverheadForCapacityRatio(4); err == nil {
		tbl.AddRow("DAS-DRAM fast = 1/4 capacity", stats.Percent(o), "11.3%")
	}
	if o, err := p.OverheadForCapacityRatio(16); err == nil {
		tbl.AddRow("DAS-DRAM fast = 1/16 capacity", stats.Percent(o), "-")
	}
	tbl.AddRow("TL-DRAM (128-row near segment)", stats.Percent(area.DefaultTLDRAM().Overhead()), "~24%")
	tbl.Caption = "Analytical model; the paper's 1/4 number grows sublinearly versus this linear-in-subarrays model."
	return &Figure{ID: "Area", Title: "Area overheads (Sections 4.3, 7.6)", Tables: []*stats.Table{tbl}}
}
