// Package report renders experiment results as a self-contained HTML
// page with inline SVG charts — no external dependencies, suitable for
// archiving next to EXPERIMENTS.md or attaching to a CI run.
package report

import (
	"fmt"
	"html"
	"math"
	"strings"
)

// Series is one bar color-group of a grouped bar chart (e.g. one
// architecture).
type Series struct {
	Name   string
	Values []float64
}

// BarChart describes one grouped bar chart.
type BarChart struct {
	Title  string
	YLabel string
	// Groups are the x-axis categories (e.g. traffic patterns).
	Groups []string
	// Series are the color groups; every series must have one value per
	// group.
	Series []Series
}

// Validate reports structural problems.
func (c BarChart) Validate() error {
	if len(c.Groups) == 0 || len(c.Series) == 0 {
		return fmt.Errorf("report: chart %q needs groups and series", c.Title)
	}
	for _, s := range c.Series {
		if len(s.Values) != len(c.Groups) {
			return fmt.Errorf("report: chart %q series %q has %d values for %d groups",
				c.Title, s.Name, len(s.Values), len(c.Groups))
		}
		for _, v := range s.Values {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("report: chart %q series %q has non-finite or negative value", c.Title, s.Name)
			}
		}
	}
	return nil
}

// palette cycles series colors.
var palette = []string{"#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4"}

// chart geometry constants.
const (
	chartWidth   = 760
	chartHeight  = 320
	marginLeft   = 70
	marginRight  = 20
	marginTop    = 40
	marginBottom = 60
)

// SVG renders the chart as an SVG fragment.
func (c BarChart) SVG() (string, error) {
	if err := c.Validate(); err != nil {
		return "", err
	}

	maxV := 0.0
	for _, s := range c.Series {
		for _, v := range s.Values {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV == 0 {
		maxV = 1
	}

	plotW := float64(chartWidth - marginLeft - marginRight)
	plotH := float64(chartHeight - marginTop - marginBottom)
	groupW := plotW / float64(len(c.Groups))
	barW := groupW * 0.8 / float64(len(c.Series))

	// Each product below is rounded by a conversion before it is added,
	// so no GOARCH fuses it and the SVG bytes are the same everywhere.
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d" width="%d" height="%d" role="img">`,
		chartWidth, chartHeight, chartWidth, chartHeight)
	fmt.Fprintf(&b, `<text x="%d" y="20" font-size="15" font-weight="bold">%s</text>`,
		marginLeft, html.EscapeString(c.Title))

	// Y axis with four gridlines.
	for i := 0; i <= 4; i++ {
		frac := float64(float64(i) / 4) // the compiler's i*0.25 must not fuse into 1-frac
		y := marginTop + float64(plotH*(1-frac))
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`,
			marginLeft, y, chartWidth-marginRight, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="11" text-anchor="end">%s</text>`,
			marginLeft-6, y+4, formatTick(maxV*frac))
	}
	fmt.Fprintf(&b, `<text x="14" y="%.1f" font-size="12" transform="rotate(-90 14 %.1f)" text-anchor="middle">%s</text>`,
		marginTop+plotH/2, marginTop+plotH/2, html.EscapeString(c.YLabel))

	// Bars.
	for gi, group := range c.Groups {
		gx := float64(marginLeft) + float64(groupW*float64(gi)) + float64(groupW*0.1)
		for si, s := range c.Series {
			v := s.Values[gi]
			h := plotH * v / maxV
			x := gx + float64(barW*float64(si))
			y := marginTop + plotH - h
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>%s / %s: %s</title></rect>`,
				x, y, barW*0.92, h, palette[si%len(palette)],
				html.EscapeString(group), html.EscapeString(s.Name), formatTick(v))
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="11" text-anchor="middle">%s</text>`,
			gx+float64(groupW*0.4), chartHeight-marginBottom+16, html.EscapeString(group))
	}

	// Legend.
	lx := float64(marginLeft)
	ly := chartHeight - 18
	for si, s := range c.Series {
		fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="12" height="12" fill="%s"/>`,
			lx, ly-10, palette[si%len(palette)])
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="12">%s</text>`,
			lx+16, ly, html.EscapeString(s.Name))
		lx += 22 + float64(8*float64(len(s.Name)))
	}

	b.WriteString(`</svg>`)
	return b.String(), nil
}

// formatTick renders an axis value compactly.
func formatTick(v float64) string {
	switch {
	case v >= 10000:
		return fmt.Sprintf("%.0fk", v/1000)
	case v >= 1000:
		return fmt.Sprintf("%.1fk", v/1000)
	case v >= 10:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
