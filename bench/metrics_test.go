package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json repeats the workload and metric tables of this
// package for the driver; the two must not drift apart.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the package: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q vs %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the package", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: %+v vs %+v", i, got, m)
		}
	}
	want := map[string]string{}
	for _, m := range perLayer {
		want[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		if unit, ok := want[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer metric %s (%s) is not in the package's table", m.Name, m.Unit)
		}
		delete(want, m.Name)
	}
	for name := range want {
		t.Errorf("per-layer metric %s is missing from BENCHMARK.json", name)
	}
}
