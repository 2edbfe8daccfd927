// Package metrics holds the result types the benchmark harness
// produces: named series of (x, y) points, tables that render as
// aligned text (gnuplot-style columns), and quick ASCII plots for
// terminal inspection of the regenerated figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one measurement: X is usually a message size in bytes, Y a
// throughput (MiB/s), time (µs) or percentage.
type Point struct {
	X float64
	Y float64
}

// Series is a named curve.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// At returns the Y value at exactly x (and whether it exists).
func (s *Series) At(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Max returns the largest Y in the series (0 for an empty series).
func (s *Series) Max() float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.Y > m {
			m = p.Y
		}
	}
	return m
}

// Equal reports whether two series carry the same name and exactly
// the same points. The simulations are deterministic, so a figure
// regenerated twice — serially or in parallel — must compare equal
// bit for bit; any difference means runs leaked state into each other.
func (s *Series) Equal(o *Series) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.Name != o.Name || len(s.Points) != len(o.Points) {
		return false
	}
	for i, p := range s.Points {
		if p != o.Points[i] {
			return false
		}
	}
	return true
}

// Table is a complete figure: several series over a shared X axis.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewTable returns an empty table.
func NewTable(title, xlabel, ylabel string) *Table {
	return &Table{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries creates, attaches and returns a new series.
func (t *Table) AddSeries(name string) *Series {
	s := &Series{Name: name}
	t.Series = append(t.Series, s)
	return s
}

// Equal reports whether two tables have identical metadata and
// series (see Series.Equal).
func (t *Table) Equal(o *Table) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Title != o.Title || t.XLabel != o.XLabel || t.YLabel != o.YLabel ||
		len(t.Series) != len(o.Series) {
		return false
	}
	for i, s := range t.Series {
		if !s.Equal(o.Series[i]) {
			return false
		}
	}
	return true
}

// Get returns the series with the given name, or nil.
func (t *Table) Get(name string) *Series {
	for _, s := range t.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// xs returns the sorted union of X values across all series.
func (t *Table) xs() []float64 {
	set := map[float64]bool{}
	for _, s := range t.Series {
		for _, p := range s.Points {
			set[p.X] = true
		}
	}
	var out []float64
	for x := range set {
		out = append(out, x)
	}
	sort.Float64s(out)
	return out
}

// SizeLabel formats a byte count the way the paper's axes do.
func SizeLabel(v float64) string {
	switch {
	case v >= 1<<20:
		if v == math.Trunc(v/(1<<20))*(1<<20) {
			return fmt.Sprintf("%.0fMB", v/(1<<20))
		}
		return fmt.Sprintf("%.1fMB", v/(1<<20))
	case v >= 1024:
		if v == math.Trunc(v/1024)*1024 {
			return fmt.Sprintf("%.0fkB", v/1024)
		}
		return fmt.Sprintf("%.1fkB", v/1024)
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

// Render produces an aligned text table: one row per X value, one
// column per series.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	fmt.Fprintf(&b, "# x: %s   y: %s\n", t.XLabel, t.YLabel)
	xs := t.xs()
	// Header.
	fmt.Fprintf(&b, "%-10s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, " %22s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%-10s", SizeLabel(x))
		for _, s := range t.Series {
			if y, ok := s.At(x); ok {
				fmt.Fprintf(&b, " %22.1f", y)
			} else {
				fmt.Fprintf(&b, " %22s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ASCIIPlot draws the table as a log-x ASCII chart (useful for a quick
// visual check of a regenerated figure in the terminal).
func (t *Table) ASCIIPlot(width, height int) string {
	xs := t.xs()
	if len(xs) == 0 || width < 20 || height < 5 {
		return "(no data)\n"
	}
	ymax := 0.0
	for _, s := range t.Series {
		if m := s.Max(); m > ymax {
			ymax = m
		}
	}
	if ymax == 0 {
		ymax = 1
	}
	lx0, lx1 := math.Log2(xs[0]), math.Log2(xs[len(xs)-1])
	if lx1 == lx0 {
		lx1 = lx0 + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := "ox+*#@%&"
	for si, s := range t.Series {
		mark := marks[si%len(marks)]
		for _, p := range s.Points {
			if p.X <= 0 {
				continue
			}
			col := int((math.Log2(p.X) - lx0) / (lx1 - lx0) * float64(width-1))
			row := height - 1 - int(p.Y/ymax*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = mark
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (ymax=%.0f %s)\n", t.Title, ymax, t.YLabel)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	var legend []string
	for si, s := range t.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", marks[si%len(marks)], s.Name))
	}
	b.WriteString(" " + strings.Join(legend, "  ") + "\n")
	return b.String()
}

// Compare is a paper-vs-measured record used by EXPERIMENTS.md
// generation and the figure smoke tests.
type Compare struct {
	What     string
	Paper    float64
	Measured float64
	Unit     string
}

// String renders the comparison with the relative deviation.
func (c Compare) String() string {
	dev := 0.0
	if c.Paper != 0 {
		dev = (c.Measured/c.Paper - 1) * 100
	}
	return fmt.Sprintf("%-46s paper=%10.1f %-7s measured=%10.1f (%+.0f%%)", c.What, c.Paper, c.Unit, c.Measured, dev)
}
