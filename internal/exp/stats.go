package exp

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the mean and a confidence half-width of a sample.
type Summary struct {
	Mean float64
	// CI is the half-width of the 95% normal-approximation confidence
	// interval (1.96·σ/√n); 0 for samples of size ≤ 1.
	CI float64
	N  int
}

// Summarise computes mean and confidence interval of a sample.
func Summarise(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	if n == 1 {
		return Summary{Mean: mean, N: 1}
	}
	var sq float64
	for _, x := range xs {
		d := x - mean
		sq += float64(d * d)
	}
	std := math.Sqrt(sq / float64(n-1))
	return Summary{Mean: mean, CI: 1.96 * std / math.Sqrt(float64(n)), N: n}
}

// SummariseCI computes the half-width at an arbitrary z (e.g. 2.58 for the
// 99% interval used by Figure 7).
func SummariseCI(xs []float64, z float64) Summary {
	s := Summarise(xs)
	if s.N > 1 {
		s.CI = s.CI / 1.96 * z
	}
	return s
}

// Median returns the sample median.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	mid := len(ys) / 2
	if len(ys)%2 == 1 {
		return ys[mid]
	}
	return (ys[mid-1] + ys[mid]) / 2
}

// Table is a simple textual table: the common output format of every figure
// runner, written as CSV or aligned text.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// CSV renders the table as CSV (header first). Cells are expected not to
// contain commas; the harness only emits numbers and identifiers.
func (t *Table) CSV() string {
	out := join(t.Header) + "\n"
	for _, r := range t.Rows {
		out += join(r) + "\n"
	}
	return out
}

// Text renders the table with aligned columns for terminal output.
func (t *Table) Text() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var out string
	if t.Title != "" {
		out += "# " + t.Title + "\n"
	}
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			s += fmt.Sprintf("%-*s", widths[i]+2, c)
		}
		return s + "\n"
	}
	out += line(t.Header)
	for _, r := range t.Rows {
		out += line(r)
	}
	return out
}

func join(cells []string) string {
	out := ""
	for i, c := range cells {
		if i > 0 {
			out += ","
		}
		out += c
	}
	return out
}

// F formats a float with 4 significant digits for table cells.
func F(v float64) string { return fmt.Sprintf("%.4g", v) }
