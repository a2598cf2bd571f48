package adaptix

import (
	"context"
	"reflect"
	"testing"

	"adaptix/internal/harness"
	"adaptix/internal/workload"
)

// stubEngine answers every query with one fixed cost record.
type stubEngine struct{ st OpStats }

func (s stubEngine) Name() string { return "stub" }

func (s stubEngine) Count(context.Context, int64, int64) (int64, OpStats, error) {
	return 7, s.st, nil
}

func (s stubEngine) Sum(context.Context, int64, int64) (int64, OpStats, error) {
	return 11, s.st, nil
}

// TestCostRecordArrivesWhole: the cost record an engine returns reaches
// every consumer unchanged — the harness row and the facade's Result
// embed it, so no field can be dropped on the way. The stub sets every
// field; a field added to OpStats later fails here until the stub sets
// it too, and then it is carried without a further edit.
func TestCostRecordArrivesWhole(t *testing.T) {
	st := OpStats{Wait: 1, Refine: 2, Critical: 3, Conflicts: 4, Epochs: 5, Touched: 6, Skipped: true}
	rv := reflect.ValueOf(st)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Fatalf("the stub leaves OpStats.%s zero", rv.Type().Field(i).Name)
		}
	}
	e := stubEngine{st}
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		query     func() (int64, OpStats)
		wantValue int64
	}{
		{"harness row, count", func() (int64, OpStats) {
			run := harness.Execute(e, []workload.Query{{Kind: workload.Count, Lo: 0, Hi: 1}}, 1)
			return run.Checksum, run.Series.Costs[0].OpStats
		}, 7},
		{"harness row, sum", func() (int64, OpStats) {
			run := harness.Execute(e, []workload.Query{{Kind: workload.Sum, Lo: 0, Hi: 1}}, 1)
			return run.Checksum, run.Series.Costs[0].OpStats
		}, 11},
		{"facade Result, count", func() (int64, OpStats) {
			r, err := result(e.Count(ctx, 0, 1))
			if err != nil {
				t.Fatal(err)
			}
			return r.Value, r.OpStats
		}, 7},
		{"facade Result, sum", func() (int64, OpStats) {
			r, err := result(e.Sum(ctx, 0, 1))
			if err != nil {
				t.Fatal(err)
			}
			return r.Value, r.OpStats
		}, 11},
	} {
		v, got := tc.query()
		if v != tc.wantValue || got != st {
			t.Errorf("%s: value %d, record %+v; want %d, %+v", tc.name, v, got, tc.wantValue, st)
		}
	}
}
