package protocol

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"powerdiv/internal/cpumodel"
	"powerdiv/internal/division"
	"powerdiv/internal/models"
)

// pairRows runs a pair campaign for one model against the Eq 3 objective,
// phase 1 included, and returns its rows in scenario order.
func pairRows(ctx Context, scenarios []Scenario, f models.Factory) ([]Evaluation, error) {
	res, err := Evaluate(context.Background(), ctx, Campaign{Kind: PairCampaign, Scenarios: scenarios, Factories: FixedFactories(f)})
	if err != nil {
		return nil, err
	}
	return res.Pairs(0, 0), nil
}

// evaluatePair scores one model over one pair scenario against baselines.
func evaluatePair(ctx Context, s Scenario, f models.Factory, baselines map[string]division.Baseline, obj Objective) (Evaluation, error) {
	res, err := Evaluate(context.Background(), ctx, Campaign{
		Kind: PairCampaign, Scenarios: []Scenario{s}, Factories: FixedFactories(f),
		Baselines: baselines, Objectives: []Objective{obj},
	})
	if err != nil {
		return Evaluation{}, err
	}
	return res.Pairs(0, 0)[0], nil
}

// trafficTable runs a traffic campaign, phase 1 included, and returns each
// model's rows keyed by model name.
func trafficTable(cctx context.Context, ctx Context, scenarios []Scenario, factories func(map[string]division.Baseline) []models.Factory, window time.Duration) (map[string][]TrafficEvaluation, error) {
	res, err := Evaluate(cctx, ctx, Campaign{Kind: TrafficCampaign, Scenarios: scenarios, Factories: factories, Window: window})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]TrafficEvaluation, len(res.Factories))
	for m, f := range res.Factories {
		out[f.Name] = res.Traffic(m)
	}
	return out, nil
}

// measureOne is phase 1 for a single application.
func measureOne(ctx Context, app AppSpec) (division.Baseline, error) {
	bs, err := Measure(context.Background(), ctx, []AppSpec{app})
	return bs[app.baselineID()], err
}

// TestEntryPointSurface pins the package's exported Evaluate*/Measure*
// functions to the two protocol halves and the deprecated wrappers the
// benchmark harness still calls, so a new twin or per-kind entry point
// cannot creep back in unnoticed.
func TestEntryPointSurface(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() {
				continue
			}
			if name := fn.Name.Name; strings.HasPrefix(name, "Evaluate") || strings.HasPrefix(name, "Measure") {
				got = append(got, name)
			}
		}
	}
	slices.Sort(got)
	want := []string{"Evaluate", "EvaluateModelsStreaming", "EvaluateTrafficScenarioStreaming", "Measure", "MeasureBaselinesParallel"}
	if !slices.Equal(got, want) {
		t.Errorf("exported Evaluate*/Measure* functions = %v, want %v", got, want)
	}
}

// requireCancelledMidRun runs c under a context that reports Canceled from
// its polls-th poll on — past phase 1's one poll per solo run, well short of
// a scenario's ticks — and requires that the campaign aborts
// mid-simulation (not after the scenario), the error unwraps to
// context.Canceled, and the shared worker budget drains back to zero: the
// contract the service's job cancellation and client-disconnect paths rely
// on.
func requireCancelledMidRun(t *testing.T, polls int, ctx Context, c Campaign) {
	t.Helper()
	_, err := Evaluate(newCancelAfterErrs(polls), ctx, c)
	if err == nil {
		t.Fatalf("cancelled %s campaign returned nil error", c.Kind)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
	waitWorkerBudgetDrain(t)
}

// cancelSetup is the two-application mix the pair and timeline
// cancellation tests run.
func cancelSetup(t *testing.T) (Context, AppSpec, AppSpec) {
	return goldenContext(cpumodel.SmallIntel(), false), mustStressApp(t, "fibonacci", 1), mustStressApp(t, "int64", 1)
}

// TestStreamingCtxCancelMidRun cancels a pair campaign mid-run, scored
// against one objective and against two.
func TestStreamingCtxCancelMidRun(t *testing.T) {
	ctx, a0, a1 := cancelSetup(t)
	pair := []Scenario{{Apps: []AppSpec{a0, a1}}}
	for _, tc := range []struct {
		name       string
		objectives []Objective
	}{
		{"one-objective", nil},
		{"two-objectives", []Objective{ObjectiveActive, ObjectiveResidualAware}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			requireCancelledMidRun(t, 20, ctx, Campaign{
				Kind: PairCampaign, Scenarios: pair, Factories: FixedFactories(models.NewScaphandre()), Objectives: tc.objectives,
			})
		})
	}
}

// TestTrafficCtxCancelMidRun is the traffic-campaign twin of the pair-path
// cancellation test.
func TestTrafficCtxCancelMidRun(t *testing.T) {
	ctx, scenarios, factories := trafficGoldenSetup(t)
	requireCancelledMidRun(t, 25, ctx, Campaign{Kind: TrafficCampaign, Scenarios: scenarios, Factories: factories, Window: trafficTestWindow})
}

// TestTimelineCtxCancelMidRun is the timeline-campaign twin of the
// pair-path cancellation test.
func TestTimelineCtxCancelMidRun(t *testing.T) {
	ctx, a0, late := cancelSetup(t)
	late.StartAt = 2 * time.Second
	requireCancelledMidRun(t, 20, ctx, Campaign{
		Kind: TimelineCampaign, Scenarios: []Scenario{{Apps: []AppSpec{a0, late}}}, Factories: FixedFactories(models.NewScaphandre()), Window: 10 * time.Second,
	})
}

// TestEvaluateRejectsBadCampaigns pins Evaluate's input checks: an unknown
// kind fails before any work, and so does a timeline without a horizon.
func TestEvaluateRejectsBadCampaigns(t *testing.T) {
	t.Parallel()
	ctx := labSmall()
	s := []Scenario{{Apps: []AppSpec{mustStressApp(t, "fibonacci", 1)}}}
	for _, c := range []Campaign{
		{Kind: "sweep", Scenarios: s, Factories: FixedFactories(models.NewScaphandre())},
		{Kind: TimelineCampaign, Scenarios: s, Factories: FixedFactories(models.NewScaphandre())},
	} {
		if _, err := Evaluate(context.Background(), ctx, c); err == nil {
			t.Errorf("%s campaign with window %v accepted", c.Kind, c.Window)
		}
	}
}
