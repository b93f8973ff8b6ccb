package division

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"powerdiv/internal/units"
)

func TestSharesVector(t *testing.T) {
	s := Shares{"a": 0.25, "c": 0, "d": 0.75}
	v := s.Vector([]string{"a", "b", "c", "d"})
	want := []float64{0.25, AbsentShare, 0, 0.75}
	for i := range want {
		if v[i] != want[i] {
			t.Errorf("v[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

func TestAbsoluteErrorColumnsMismatch(t *testing.T) {
	_, err := AbsoluteErrorColumns(make([][]units.Watts, 2), make([]units.Watts, 1), make([][]float64, 2))
	if err == nil {
		t.Error("mismatched lengths accepted")
	}
}

// TestAbsoluteErrorColumnsMismatchNamesLengths pins the length-mismatch
// messages: each names the lengths it compared, in argument order.
func TestAbsoluteErrorColumnsMismatchNamesLengths(t *testing.T) {
	_, err := AbsoluteErrorColumns(make([][]units.Watts, 3), make([]units.Watts, 2), make([][]float64, 5))
	if err == nil || err.Error() != "division: mismatched lengths 3/2/5" {
		t.Errorf("AbsoluteErrorColumns: err = %v, want lengths 3/2/5", err)
	}
	_, err = AbsoluteErrorColumnsConst(make([][]units.Watts, 3), make([]units.Watts, 2), []float64{0.5, 0.5})
	if err == nil || err.Error() != "division: mismatched lengths 3/2" {
		t.Errorf("AbsoluteErrorColumnsConst: err = %v, want lengths 3/2", err)
	}
}

func TestAbsoluteErrorColumnsEmpty(t *testing.T) {
	// All ticks skipped: nil estimate, nil truth, non-positive power, or a
	// truth vector of only absent slots.
	ests := [][]units.Watts{nil, {10, 10}, {10, 10}, {10, 10}}
	power := []units.Watts{20, 20, 0, 20}
	truths := [][]float64{{0.5, 0.5}, nil, {0.5, 0.5}, {AbsentShare, AbsentShare}}
	if _, err := AbsoluteErrorColumns(ests, power, truths); !errors.Is(err, ErrEmptyScoring) {
		t.Errorf("err = %v, want ErrEmptyScoring", err)
	}
}

// TestAbsoluteErrorColumnsMatchesMapForm fuzzes random scored campaigns
// through both Equation 5 implementations: the columnar form must be
// bit-identical to the map form, with AbsentShare slots standing in for
// IDs outside the truth map.
func TestAbsoluteErrorColumnsMatchesMapForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(20)
		mapEsts := make([]map[string]units.Watts, n)
		colEsts := make([][]units.Watts, n)
		power := make([]units.Watts, n)
		mapTruths := make([]Shares, n)
		colTruths := make([][]float64, n)
		for i := 0; i < n; i++ {
			power[i] = units.Watts(rng.Float64() * 50)
			if rng.Float64() < 0.2 {
				continue // nil estimate and truth on both sides
			}
			truth := Shares{}
			est := map[string]units.Watts{}
			col := make([]units.Watts, len(ids))
			for slot, id := range ids {
				if rng.Float64() < 0.3 {
					continue // id outside this tick's objective
				}
				truth[id] = rng.Float64()
				w := units.Watts(rng.Float64() * 20)
				est[id] = w
				col[slot] = w
			}
			if len(truth) == 0 {
				continue
			}
			mapEsts[i], colEsts[i] = est, col
			mapTruths[i], colTruths[i] = truth, truth.Vector(ids)
		}
		want, wantErr := AbsoluteError(mapEsts, power, mapTruths)
		got, gotErr := AbsoluteErrorColumns(colEsts, power, colTruths)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: map err %v, columns err %v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("trial %d: map AE %v != columnar AE %v", trial, want, got)
		}
	}
}

// TestDenseTruthAndErrorSumMatchMapForms is the property behind per-segment
// traffic scoring: over random rosters whose baselines include zero and
// negative active power, and random presence columns, TruthVectorInto
// equals TruthShares(present).Vector(ids) Float64bits for Float64bits
// (nil exactly when the map form is nil), and an ErrorSum fed tick by tick
// equals both AbsoluteErrorColumns and the map-form AbsoluteError bit for
// bit, ticks with non-positive power and missing estimates included.
func TestDenseTruthAndErrorSumMatchMapForms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(7)
		ids := make([]string, n)
		for slot := range ids {
			ids[slot] = fmt.Sprintf("%s-%d.%03d", []string{"fib", "int64", "matrixprod"}[rng.Intn(3)], 1+rng.Intn(2), slot)
		}
		sort.Strings(ids)
		base := make([]Baseline, n)
		for slot, id := range ids {
			residual := 5 + 40*rng.Float64()
			active := 0.5 + 120*rng.Float64()
			switch rng.Intn(5) {
			case 0:
				active = 0
			case 1:
				active = -active
			}
			base[slot] = Baseline{ID: id, Total: units.Watts(residual + active), Residual: units.Watts(residual)}
		}

		ticks := 1 + rng.Intn(12)
		colEsts := make([][]units.Watts, ticks)
		mapEsts := make([]map[string]units.Watts, ticks)
		power := make([]units.Watts, ticks)
		colTruths := make([][]float64, ticks)
		mapTruths := make([]Shares, ticks)
		var acc ErrorSum
		for i := 0; i < ticks; i++ {
			present := make([]bool, n)
			var bs []Baseline
			for slot := range present {
				if present[slot] = rng.Float64() < 0.6; present[slot] {
					bs = append(bs, base[slot])
				}
			}
			want := TruthShares(bs)
			got := TruthVectorInto(make([]float64, n), base, present)
			if (want == nil) != (got == nil) {
				t.Fatalf("trial %d tick %d: map truth %v, dense truth %v", trial, i, want, got)
			}
			if want != nil {
				for slot, v := range want.Vector(ids) {
					if math.Float64bits(v) != math.Float64bits(got[slot]) {
						t.Fatalf("trial %d tick %d slot %d: map share %v, dense share %v", trial, i, slot, v, got[slot])
					}
				}
			}
			switch rng.Intn(6) {
			case 0:
				power[i] = 0
			case 1:
				power[i] = units.Watts(-rng.Float64() * 5)
			default:
				power[i] = units.Watts(rng.Float64() * 50)
			}
			colTruths[i], mapTruths[i] = got, want
			if rng.Float64() < 0.8 {
				colEsts[i] = make([]units.Watts, n)
				mapEsts[i] = map[string]units.Watts{}
				for slot, id := range ids {
					w := units.Watts(rng.Float64() * 20)
					colEsts[i][slot], mapEsts[i][id] = w, w
				}
			}
			acc.Add(colEsts[i], power[i], colTruths[i])
		}
		got, gotErr := acc.Mean()
		cols, colsErr := AbsoluteErrorColumns(colEsts, power, colTruths)
		maps, mapsErr := AbsoluteError(mapEsts, power, mapTruths)
		if !errors.Is(gotErr, colsErr) || !errors.Is(gotErr, mapsErr) {
			t.Fatalf("trial %d: errors %v / %v / %v", trial, gotErr, colsErr, mapsErr)
		}
		if math.Float64bits(got) != math.Float64bits(cols) || math.Float64bits(got) != math.Float64bits(maps) {
			t.Fatalf("trial %d: ErrorSum %v, columns %v, map form %v", trial, got, cols, maps)
		}
	}
}

// mapNormalize is the map-keyed normalize the objectives were first
// written over, kept as the reference for the roster kernels: the
// positive weights summed in sorted-ID order, negative weights clamped to
// 0, nil when no weight is positive.
func mapNormalize(weights map[string]float64) Shares {
	ids := make([]string, 0, len(weights))
	for id := range weights {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var total float64
	for _, id := range ids {
		if w := weights[id]; w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return nil
	}
	s := make(Shares, len(weights))
	for _, id := range ids {
		w := weights[id]
		if w < 0 {
			w = 0
		}
		s[id] = w / total
	}
	return s
}

// TestPairObjectivesMatchMapReference pins the three pair objectives over
// a roster against their map-keyed reference forms, Float64bits for
// Float64bits and nil exactly when the reference is nil: Eq 3 (active),
// the residual-aware weights A + (R − min R) and the nominal-residual
// weights C − R0, over random sorted rosters whose weights include zero
// and negative values.
func TestPairObjectivesMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(5)
		ids := make([]string, n)
		for slot := range ids {
			ids[slot] = fmt.Sprintf("%s-%d", []string{"fib", "int64", "matrixprod"}[rng.Intn(3)], slot)
		}
		sort.Strings(ids)
		base := make([]Baseline, n)
		for slot, id := range ids {
			residual := 5 + 40*rng.Float64()
			active := 0.5 + 120*rng.Float64()
			switch rng.Intn(5) {
			case 0:
				active = 0
			case 1:
				active = -active
			}
			base[slot] = Baseline{ID: id, Total: units.Watts(residual + active), Residual: units.Watts(residual)}
		}
		r0 := units.Watts(60 * rng.Float64())
		minR := base[0].Residual
		for _, b := range base[1:] {
			if b.Residual < minR {
				minR = b.Residual
			}
		}
		active, aware, nominal := map[string]float64{}, map[string]float64{}, map[string]float64{}
		for _, b := range base {
			active[b.ID] = float64(b.Active())
			aware[b.ID] = float64(b.Active() + (b.Residual - minR))
			nominal[b.ID] = float64(b.Total - r0)
		}
		for _, c := range []struct {
			name string
			want Shares
			got  []float64
		}{
			{"active", mapNormalize(active), TruthVectorInto(make([]float64, n), base, nil)},
			{"residual-aware", mapNormalize(aware), ResidualAwareTruthInto(make([]float64, n), base)},
			{"nominal-residual", mapNormalize(nominal), NominalResidualTruthInto(make([]float64, n), base, r0)},
		} {
			if (c.want == nil) != (c.got == nil) {
				t.Fatalf("trial %d %s: map %v, roster %v", trial, c.name, c.want, c.got)
			}
			for slot, id := range ids {
				if c.want != nil && math.Float64bits(c.want[id]) != math.Float64bits(c.got[slot]) {
					t.Fatalf("trial %d %s slot %d: map %v, roster %v", trial, c.name, slot, c.want[id], c.got[slot])
				}
			}
		}
	}
}
