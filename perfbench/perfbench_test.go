package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"mlcg/internal/gen"
	"mlcg/internal/graph"
)

// benchSpec is the part of BENCHMARK.json the tests check against.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyConfig(t *testing.T, seed uint64, trace bool) config {
	return config{seed: seed, window: 500 * time.Millisecond, trace: trace, tiny: true, tmpRoot: t.TempDir()}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
}

// Every workload runs at a tiny size, passes its own checks and reports
// exactly the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			list := spec.EndToEnd
			if trace {
				list = spec.PerLayer
			}
			for _, m := range list {
				want[m.Name] = m.Unit
			}
			rep, err := measure(w, tinyConfig(t, 7, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			got := map[string]string{}
			for k, m := range rep.Metrics {
				got[k] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.name, trace, sortedKeys(got), sortedKeys(want))
			}
			if trace && rep.Metrics["trace.replay_match"].Value != 1 {
				t.Errorf("%s: replay through the layers' public calls did not reproduce the output", w.name)
			}
		}
	}
}

func TestQualityLossRepeatsExactly(t *testing.T) {
	for _, w := range workloads {
		a, err := measure(w, tinyConfig(t, 11, false))
		if err != nil {
			t.Fatal(err)
		}
		b, err := measure(w, tinyConfig(t, 11, false))
		if err != nil {
			t.Fatal(err)
		}
		qa, qb := a.Metrics["quality_loss"].Value, b.Metrics["quality_loss"].Value
		if qa != qb || qa <= 0 {
			t.Errorf("%s: quality_loss %v then %v, want one positive value", w.name, qa, qb)
		}
	}
}

func TestStandInsMatchSuite(t *testing.T) {
	const seed = 12345
	suite := map[string]*graph.Graph{}
	for _, in := range gen.Suite(gen.SuiteOptions{Scale: 1, Seed: seed}) {
		suite[in.Name] = in.Graph
	}
	for name, f := range standInGen {
		if !reflect.DeepEqual(f(seed), suite[name]) {
			t.Errorf("stand-in %s differs from gen.Suite's", name)
		}
	}
}

// A different seed must change every workload's inputs.
func TestSeedChangesInputs(t *testing.T) {
	for _, names := range [][]string{spectralInstances, fmInstances, embedInstances, serveInstances} {
		a, err := standIns(names, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := standIns(names, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if reflect.DeepEqual(a[i].g, b[i].g) && a[i].name != "channel050" {
				t.Errorf("%s: seeds 1 and 2 generate the same graph", a[i].name)
			}
		}
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
