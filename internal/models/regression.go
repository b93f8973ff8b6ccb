package models

import (
	"math"
	"sync"
)

// RidgeFit4 solves the ridge-regularised least squares problem
// (XᵀX + λI) w = Xᵀy for w, with feature scaling: each column of X is
// divided by its mean absolute value before fitting, and the returned
// scales let callers apply the weights to raw feature vectors. Rows are
// observations (feature vectors of width dim), y the targets. It feeds a
// calibWindow, whose fit is the one normal-equation kernel.
func RidgeFit4(rows [][4]float64, y []float64, lambda float64) (weights, scales [4]float64) {
	if len(rows) != len(y) {
		return weights, [4]float64{1, 1, 1, 1}
	}
	var w calibWindow
	for i, r := range rows {
		w.add(r, y[i])
	}
	return w.fit(lambda)
}

// calibRun is n consecutive calibration rows equal to row.
type calibRun struct {
	row [4]float64
	n   int
}

// calibWindow is a self-calibrating model's training set: aggregate
// counter rows, run-length encoded, and one target per row. A segment's
// aggregate row is constant over its ticks, so a window holds one run per
// segment however many ticks it spans; the targets still differ per tick.
type calibWindow struct {
	runs    []calibRun
	targets []float64
}

// calibWindows recycles windows across models: a campaign builds fresh
// models per scenario, and each borrows windows for its calibrations (see
// borrowWindow and handBack). Reuse changes where the rows live, never
// their values or order, so fits are bit-identical to fresh windows.
var calibWindows = sync.Pool{New: func() any { return new(calibWindow) }}

// borrowWindow takes an empty window from calibWindows.
func borrowWindow() *calibWindow { return calibWindows.Get().(*calibWindow) }

// handBack empties w and returns it to calibWindows. The caller must drop
// its reference first.
func (w *calibWindow) handBack() {
	w.clear()
	calibWindows.Put(w)
}

// clear empties the window, keeping its storage.
func (w *calibWindow) clear() { w.runs, w.targets = w.runs[:0], w.targets[:0] }

// add appends one row and its target. Rows are compared bit for bit, so a
// run only ever merges rows the fit could not tell apart.
func (w *calibWindow) add(row [4]float64, y float64) {
	if n := len(w.runs); n > 0 && sameRow(w.runs[n-1].row, row) {
		w.runs[n-1].n++
	} else {
		w.runs = append(w.runs, calibRun{row: row, n: 1})
	}
	w.targets = append(w.targets, y)
}

// len returns the number of rows in the window.
func (w *calibWindow) len() int { return len(w.targets) }

// sameRow reports whether two rows are bitwise equal.
func sameRow(a, b [4]float64) bool {
	for d := range a {
		if math.Float64bits(a[d]) != math.Float64bits(b[d]) {
			return false
		}
	}
	return true
}

// calibRidge is the ridge strength of the PowerAPI and SmartWatts
// calibration fits.
const calibRidge = 1e-3

// fit solves the window's ridge problem (see RidgeFit4). Every sum adds
// the same terms in the same row order as a row-by-row fit, so run-length
// encoding changes only how often the per-row products are computed: the
// scaled row once per run, and of XᵀX only the upper triangle, mirrored
// (x[p]·x[q] and x[q]·x[p] round identically). The four column sums share
// one pass, and the ten XᵀX and four Xᵀy sums are scalar locals the
// compiler keeps in registers; each still adds its own terms in row order.
func (w *calibWindow) fit(lambda float64) (weights, scales [4]float64) {
	scales = [4]float64{1, 1, 1, 1}
	rows := w.len()
	if rows == 0 {
		return weights, scales
	}
	// Column scaling keeps the ridge penalty meaningful across features of
	// wildly different magnitudes (cycles ~1e10/s vs cache refs ~1e7/s).
	var s0, s1, s2, s3 float64
	for _, r := range w.runs {
		v0, v1, v2, v3 := abs(r.row[0]), abs(r.row[1]), abs(r.row[2]), abs(r.row[3])
		for k := 0; k < r.n; k++ {
			s0 += v0
			s1 += v1
			s2 += v2
			s3 += v3
		}
	}
	for d, sum := range [4]float64{s0, s1, s2, s3} {
		if mean := sum / float64(rows); mean > 0 {
			scales[d] = mean
		}
	}
	// Normal equations in scaled space.
	var a00, a01, a02, a03, a11, a12, a13, a22, a23, a33 float64
	var b0, b1, b2, b3 float64
	y := w.targets
	for _, r := range w.runs {
		x0, x1, x2, x3 := r.row[0]/scales[0], r.row[1]/scales[1], r.row[2]/scales[2], r.row[3]/scales[3]
		p00, p01, p02, p03 := x0*x0, x0*x1, x0*x2, x0*x3
		p11, p12, p13 := x1*x1, x1*x2, x1*x3
		p22, p23, p33 := x2*x2, x2*x3, x3*x3
		for _, t := range y[:r.n] {
			a00 += p00
			a01 += p01
			a02 += p02
			a03 += p03
			a11 += p11
			a12 += p12
			a13 += p13
			a22 += p22
			a23 += p23
			a33 += p33
			b0 += x0 * t
			b1 += x1 * t
			b2 += x2 * t
			b3 += x3 * t
		}
		y = y[r.n:]
	}
	ridge := lambda * float64(rows)
	a := [4][4]float64{
		{a00 + ridge, a01, a02, a03},
		{a01, a11 + ridge, a12, a13},
		{a02, a12, a22 + ridge, a23},
		{a03, a13, a23, a33 + ridge},
	}
	sol, ok := solve4(a, [4]float64{b0, b1, b2, b3})
	if !ok {
		return weights, scales
	}
	return sol, scales
}

// solve4 solves the 4×4 linear system a·x = b by Gaussian elimination with
// partial pivoting. ok is false for a (numerically) singular system.
func solve4(a [4][4]float64, b [4]float64) (x [4]float64, ok bool) {
	const n = 4
	// Augment.
	var m [n][n + 1]float64
	for i := 0; i < n; i++ {
		copy(m[i][:n], a[i][:])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if abs(m[r][col]) > abs(m[piv][col]) {
				piv = r
			}
		}
		if abs(m[piv][col]) < 1e-12 {
			return x, false
		}
		m[col], m[piv] = m[piv], m[col]
		// Eliminate.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	for i := 0; i < n; i++ {
		x[i] = m[i][n] / m[i][i]
	}
	return x, true
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
