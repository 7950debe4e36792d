package bench

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// This file renders experiment results to machine-readable CSV (for
// re-plotting the paper's figures with any charting tool) and to ASCII
// staircase charts for terminal inspection.

// writeCSV writes rows to dir/name.csv.
func writeCSV(dir, name string, header []string, rows [][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		f.Close()
		return err
	}
	// WriteAll flushes the header with the rows and reports the flush error.
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func f2s(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}

// ExportTable3CSV writes the Table 3 matrix.
func ExportTable3CSV(dir string, rows []Table3Row) error {
	header := append([]string{"scenario"}, SystemNames...)
	var out [][]string
	for _, r := range rows {
		rec := []string{r.Scenario.Label()}
		for _, n := range SystemNames {
			rec = append(rec, f2s(r.Scaled[n]))
		}
		out = append(out, rec)
	}
	return writeCSV(dir, "table3", header, out)
}

// ExportTable4CSV writes the Table 4 trial counts.
func ExportTable4CSV(dir string, rows []Table4Row) error {
	header := append([]string{"scenario"}, SystemNames...)
	var out [][]string
	for _, r := range rows {
		rec := []string{r.Scenario.Label()}
		for _, n := range SystemNames {
			rec = append(rec, f2s(r.Counts[n]))
		}
		out = append(out, rec)
	}
	return writeCSV(dir, "table4", header, out)
}

// ExportConvergenceCSV writes one long-format CSV per figure: scenario,
// system, clock, best.
func ExportConvergenceCSV(dir, name string, figs []FigureConvergence) error {
	header := []string{"scenario", "system", "tuning_seconds", "best_seconds"}
	var out [][]string
	for _, fc := range figs {
		for _, s := range fc.Series {
			for _, p := range s.Points {
				out = append(out, []string{fc.Scenario.Label(), s.System, f2s(p.Clock), f2s(p.BestTime)})
			}
		}
	}
	return writeCSV(dir, name, header, out)
}

// ExportFigure5CSV writes the per-query comparison.
func ExportFigure5CSV(dir string, rows []Figure5Row) error {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Query, f2s(r.Default), f2s(r.Tuned)})
	}
	return writeCSV(dir, "figure5", []string{"query", "default_seconds", "tuned_seconds"}, out)
}

// ExportFigure7CSV writes the token-budget study.
func ExportFigure7CSV(dir string, rows []Figure7Row) error {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Label, strconv.Itoa(r.WorkloadTokens), f2s(r.BestTime), f2s(r.TuningSeconds)})
	}
	return writeCSV(dir, "figure7", []string{"prompt", "tokens", "best_seconds", "tuning_seconds"}, out)
}

// AsciiChart renders one scenario's convergence series as a log-x staircase
// chart suitable for terminals: each system is one row of a down-sampled
// timeline, with the best-so-far value class-coded.
func AsciiChart(fc FigureConvergence, width int) string {
	if width < 20 {
		width = 60
	}
	// Find the clock and value ranges across all systems.
	minClock, maxClock := math.Inf(1), 0.0
	minVal, maxVal := math.Inf(1), 0.0
	for _, s := range fc.Series {
		for _, p := range s.Points {
			if p.Clock > 0 && p.Clock < minClock {
				minClock = p.Clock
			}
			if p.Clock > maxClock {
				maxClock = p.Clock
			}
			if p.BestTime < minVal {
				minVal = p.BestTime
			}
			if p.BestTime > maxVal {
				maxVal = p.BestTime
			}
		}
	}
	if math.IsInf(minClock, 1) || maxClock <= 0 {
		return fmt.Sprintf("== %s == (no data)\n", fc.Scenario.Label())
	}
	if minClock == maxClock {
		maxClock = minClock * 2
	}
	logMin, logMax := math.Log(minClock), math.Log(maxClock)
	// Value → glyph bucket: best quartile '█', then '▓', '▒', '░'.
	glyph := func(v float64) byte {
		if maxVal <= minVal {
			return '#'
		}
		f := (v - minVal) / (maxVal - minVal)
		switch {
		case f < 0.25:
			return '#' // near-optimal
		case f < 0.5:
			return '+'
		case f < 0.75:
			return '-'
		default:
			return '.'
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==  (x: log time %.0fs..%.0fs; #=near-best .=far)\n",
		fc.Scenario.Label(), minClock, maxClock)
	for _, s := range fc.Series {
		line := make([]byte, width)
		for i := range line {
			line[i] = ' '
		}
		// Fill each column with the best-so-far value at that time.
		cur := math.NaN()
		pi := 0
		for x := 0; x < width; x++ {
			tAt := math.Exp(logMin + (logMax-logMin)*float64(x)/float64(width-1))
			for pi < len(s.Points) && s.Points[pi].Clock <= tAt*1.0000001 {
				cur = s.Points[pi].BestTime
				pi++
			}
			if !math.IsNaN(cur) {
				line[x] = glyph(cur)
			}
		}
		fmt.Fprintf(&b, "  %-10s |%s|\n", s.System, line)
	}
	return b.String()
}
