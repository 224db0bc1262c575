package fixrule

import (
	"bytes"
	"context"
	"maps"
	"testing"

	"fixrule/internal/core"
	"fixrule/internal/repair"
	"fixrule/internal/schema"
)

// TestCompiledRepairMatchesReference cross-checks the compiled repair
// engine against the string-level reference semantics in internal/core on
// the two benchmark workloads (mined hosp and uis rulesets over dirtied
// relations). For each dataset it fixes every tuple row-by-row with
// core.Fix, then requires RepairRelation (both algorithms) and
// RepairRelationParallel to produce byte-identical tuples and the same
// total step count — the dictionary encoding, inverted lists, bitmask
// assured set and copy-on-write output must be pure optimisations.
func TestCompiledRepairMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		load func(testing.TB) *benchWorkload
	}{
		{"hosp", loadHosp},
		{"uis", loadUIS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.load(t)
			rules := w.rules.Rules()
			n := w.dirty.Len()

			refRows := make([]schema.Tuple, n)
			refSteps := 0
			for i := 0; i < n; i++ {
				fixed, steps, _ := core.Fix(rules, w.dirty.Row(i))
				refRows[i] = fixed
				refSteps += len(steps)
			}
			if refSteps == 0 {
				t.Fatalf("%s: reference repair made no fixes; workload is not exercising the engine", tc.name)
			}

			rep := repair.NewRepairer(w.rules)
			check := func(label string, res *repair.Result) {
				t.Helper()
				if res.Steps != refSteps {
					t.Errorf("%s: %d steps, reference made %d", label, res.Steps, refSteps)
				}
				if res.Relation.Len() != n {
					t.Fatalf("%s: %d rows out, %d in", label, res.Relation.Len(), n)
				}
				for i := 0; i < n; i++ {
					if !res.Relation.Row(i).Equal(refRows[i]) {
						t.Fatalf("%s: row %d = %v, reference %v (input %v)",
							label, i, res.Relation.Row(i), refRows[i], w.dirty.Row(i))
					}
				}
			}
			check("cRepair", rep.RepairRelation(w.dirty, repair.Chase))
			check("lRepair", rep.RepairRelation(w.dirty, repair.Linear))
			check("lRepair/parallel", rep.RepairRelationParallel(w.dirty, repair.Linear, 4))
			check("cRepair/parallel", rep.RepairRelationParallel(w.dirty, repair.Chase, 4))
		})
	}
}

// TestStreamCSVMatchesReference cross-checks StreamCSV against the
// reference on the two benchmark workloads: the CSV parsed by encoding/csv,
// repaired by RepairRelation (pinned to core.Fix above) and rendered by
// encoding/csv. For each dataset, algorithm and worker count the stream
// must produce byte-identical output and the stats the reference Result
// implies. The raw direct-Σ coding, exact-match row filter and zero-copy
// span emission must all be pure optimisations.
func TestStreamCSVMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		load func(testing.TB) *benchWorkload
	}{
		{"hosp", loadHosp},
		{"uis", loadUIS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.load(t)
			rep := repair.NewRepairer(w.rules)
			var in bytes.Buffer
			if err := schema.WriteCSV(&in, w.dirty); err != nil {
				t.Fatal(err)
			}
			rel, err := schema.ReadCSV(bytes.NewReader(in.Bytes()), w.dirty.Schema())
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range []repair.Algorithm{repair.Linear, repair.Chase} {
				res := rep.RepairRelation(rel, alg)
				var ref bytes.Buffer
				if err := schema.WriteCSV(&ref, res.Relation); err != nil {
					t.Fatal(err)
				}
				repaired := 0
				for i, c := range res.Changed {
					if i == 0 || res.Changed[i-1].Row != c.Row {
						repaired++
					}
				}
				if repaired == 0 {
					t.Fatalf("%v: reference repaired nothing; workload is not exercising the engine", alg)
				}
				for _, workers := range []int{1, 4} {
					var got bytes.Buffer
					stats, err := rep.StreamCSV(context.Background(), bytes.NewReader(in.Bytes()), &got, alg,
						repair.ParallelOptions{Workers: workers})
					if err != nil {
						t.Fatalf("%v workers=%d: %v", alg, workers, err)
					}
					if !bytes.Equal(got.Bytes(), ref.Bytes()) {
						t.Errorf("%v workers=%d: output differs from the reference (%d vs %d bytes)",
							alg, workers, got.Len(), ref.Len())
					}
					if stats.Rows != rel.Len() || stats.Repaired != repaired ||
						stats.Steps != res.Steps || stats.OOV != res.OOV {
						t.Errorf("%v workers=%d: stats = %d/%d/%d/%d rows/repaired/steps/oov, reference %d/%d/%d/%d",
							alg, workers, stats.Rows, stats.Repaired, stats.Steps, stats.OOV,
							rel.Len(), repaired, res.Steps, res.OOV)
					}
					if !maps.Equal(stats.PerRule, res.PerRule) {
						t.Errorf("%v workers=%d: per-rule counts differ", alg, workers)
					}
					if !maps.Equal(stats.OOVByAttr, res.OOVByAttr) {
						t.Errorf("%v workers=%d: per-attribute OOV counts differ", alg, workers)
					}
				}
			}
		})
	}
}
