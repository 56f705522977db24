package report

import (
	"fmt"
	"html/template"
	"io"
	"slices"
	"sort"

	"hetpnoc/internal/area"
	"hetpnoc/internal/experiments"
	"hetpnoc/internal/gpgpu"
	"hetpnoc/internal/units"
)

// Report assembles the evaluation into one self-contained HTML document.
type Report struct {
	Title    string
	Subtitle string
	sections []section
}

type section struct {
	Heading template.HTML
	Prose   string
	ChartX  template.HTML
	Table   *tableData
}

type tableData struct {
	Header []string
	Rows   [][]string
}

// New returns an empty report.
func New(title, subtitle string) *Report {
	return &Report{Title: title, Subtitle: subtitle}
}

// AddPeakBandwidth renders a Figures 3-3/3-4 matrix for one bandwidth set
// as two grouped bar charts plus the numeric table.
func (r *Report) AddPeakBandwidth(setName string, rows []experiments.Row) error {
	var groups []string
	series := map[string][]float64{}
	epmSeries := map[string][]float64{}
	var archOrder []string
	for _, row := range rows {
		if row.Set != setName {
			continue
		}
		if len(series[row.Arch]) == 0 && !slices.Contains(archOrder, row.Arch) {
			archOrder = append(archOrder, row.Arch)
		}
		if !slices.Contains(groups, row.Pattern) {
			groups = append(groups, row.Pattern)
		}
		series[row.Arch] = append(series[row.Arch], float64(row.PeakBandwidthGbps))
		epmSeries[row.Arch] = append(epmSeries[row.Arch], float64(row.EnergyPerMessagePJ))
	}
	if len(groups) == 0 {
		return fmt.Errorf("report: no rows for set %s", setName)
	}

	bw := BarChart{
		Title:  fmt.Sprintf("Peak bandwidth, %s (Figure 3-3)", setName),
		YLabel: units.Gbps(0).Unit(),
		Groups: groups,
	}
	epm := BarChart{
		Title:  fmt.Sprintf("Energy per message, %s (Figure 3-4)", setName),
		YLabel: units.Picojoule(0).Unit(),
		Groups: groups,
	}
	for _, arch := range archOrder {
		bw.Series = append(bw.Series, Series{Name: arch, Values: series[arch]})
		epm.Series = append(epm.Series, Series{Name: arch, Values: epmSeries[arch]})
	}
	bwSVG, err := bw.SVG()
	if err != nil {
		return err
	}
	epmSVG, err := epm.SVG()
	if err != nil {
		return err
	}

	table := &tableData{Header: []string{"traffic", "arch",
		"peak " + units.Gbps(0).Unit(), "EPM " + units.Picojoule(0).Unit(), "avg latency"}}
	for _, row := range rows {
		if row.Set != setName {
			continue
		}
		table.Rows = append(table.Rows, []string{
			row.Pattern, row.Arch,
			fmt.Sprintf("%.1f", row.PeakBandwidthGbps),
			fmt.Sprintf("%.1f", row.EnergyPerMessagePJ),
			fmt.Sprintf("%.1f", row.AvgLatencyCycles),
		})
	}
	r.sections = append(r.sections, section{
		Heading: template.HTML(template.HTMLEscapeString("Figures 3-3 / 3-4 — " + setName)),
		ChartX:  template.HTML(bwSVG + epmSVG), // #nosec G203 -- generated by BarChart.SVG with escaped labels
		Table:   table,
	})
	return nil
}

// AddAreaModel renders the Figure 3-6 analytic area comparison.
func (r *Report) AddAreaModel(points []area.Point) error {
	chart := BarChart{
		Title:  "Electro-optic device area vs aggregate bandwidth (Figure 3-6)",
		YLabel: units.SquareMillimeter(0).Unit(),
	}
	dhet := Series{Name: "d-hetpnoc"}
	firefly := Series{Name: "firefly"}
	for _, p := range points {
		chart.Groups = append(chart.Groups, fmt.Sprintf("%d", p.DataWavelengths))
		dhet.Values = append(dhet.Values, float64(p.DynamicMM2))
		firefly.Values = append(firefly.Values, float64(p.FireflyMM2))
	}
	chart.Series = []Series{firefly, dhet}
	svg, err := chart.SVG()
	if err != nil {
		return err
	}
	r.sections = append(r.sections, section{
		Heading: "Figure 3-6 — area model",
		Prose:   "Analytic modulator/detector area (Equations 5-24). The d-HetPNoC overhead grows with the wavelength budget.",
		ChartX:  template.HTML(svg), // #nosec G203 -- generated by BarChart.SVG with escaped labels
	})
	return nil
}

// AddGPUSpeedups renders the Figure 1-1 motivation bars.
func (r *Report) AddGPUSpeedups(points []gpgpu.SpeedupPoint) error {
	sorted := slices.Clone(points)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].SpeedupPct > sorted[j].SpeedupPct })

	chart := BarChart{
		Title:  "GPU speedup, 1024 B vs 32 B flits (Figure 1-1)",
		YLabel: "%",
	}
	s := Series{Name: "speedup %"}
	for _, p := range sorted {
		chart.Groups = append(chart.Groups, p.Benchmark)
		s.Values = append(s.Values, p.SpeedupPct)
	}
	chart.Series = []Series{s}
	svg, err := chart.SVG()
	if err != nil {
		return err
	}
	r.sections = append(r.sections, section{
		Heading: "Figure 1-1 — motivation",
		Prose:   "Most benchmarks gain under 1% from wider GPU-memory flits; BFS and MUM are bandwidth-hungry — the heterogeneity d-HetPNoC exploits.",
		ChartX:  template.HTML(svg), // #nosec G203 -- generated by BarChart.SVG with escaped labels
	})
	return nil
}

// AddAblations renders the extension studies as a table.
func (r *Report) AddAblations(rows []experiments.Row) {
	table := &tableData{Header: []string{"study", "variant",
		"BW " + units.Gbps(0).Unit(), "EPM " + units.Picojoule(0).Unit(), "area " + units.SquareMillimeter(0).Unit()}}
	for _, row := range rows {
		areaCol := "-"
		if row.AreaMM2 > 0 {
			areaCol = fmt.Sprintf("%.3f", row.AreaMM2)
		}
		table.Rows = append(table.Rows, []string{
			row.Study, row.Variant,
			fmt.Sprintf("%.1f", row.PeakBandwidthGbps),
			fmt.Sprintf("%.1f", row.EnergyPerMessagePJ),
			areaCol,
		})
	}
	r.sections = append(r.sections, section{
		Heading: "Ablation studies (extensions)",
		Table:   table,
	})
}

var pageTemplate = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 820px; color: #222; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2.2rem; }
p.sub { color: #666; }
table { border-collapse: collapse; margin: 0.8rem 0; font-size: 0.85rem; }
th, td { border: 1px solid #ccc; padding: 3px 9px; text-align: right; }
th { background: #f2f2f2; } td:first-child, td:nth-child(2) { text-align: left; }
svg { margin: 0.6rem 0; display: block; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
<p class="sub">{{.Subtitle}}</p>
{{range .Sections}}
<h2>{{.Heading}}</h2>
{{if .Prose}}<p>{{.Prose}}</p>{{end}}
{{.ChartX}}
{{if .Table}}
<table>
<tr>{{range .Table.Header}}<th>{{.}}</th>{{end}}</tr>
{{range .Table.Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>{{end}}
</table>
{{end}}
{{end}}
</body>
</html>
`))

// Render writes the assembled HTML document.
func (r *Report) Render(w io.Writer) error {
	data := struct {
		Title    string
		Subtitle string
		Sections []section
	}{r.Title, r.Subtitle, r.sections}
	return pageTemplate.Execute(w, data)
}
