package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gcbench"
)

// benchmarkJSON is the part of BENCHMARK.json the tables must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var got, want []string
	for _, d := range endToEnd {
		got = append(got, d.Name+" "+d.Unit)
	}
	for _, d := range bj.EndToEnd {
		want = append(want, d.Name+" "+d.Unit)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("end-to-end metrics\n got %v\nwant %v", got, want)
	}
	got, want = nil, nil
	for _, d := range perLayer() {
		got = append(got, d.Name+" "+d.Unit)
	}
	for _, d := range bj.PerLayer {
		want = append(want, d.Name+" "+d.Unit)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("per-layer metrics\n got %v\nwant %v", got, want)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, driver %q", i, bj.Workloads[i].Name, w.name)
		}
	}
}

// TestTinyWorkloadsPrintEveryMetric runs every workload at self-test
// size, untraced and traced, and checks the report prints every metric
// BENCHMARK.json names with its unit and a sample count.
func TestTinyWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := loadBenchmarkJSON(t)
	e := &env{root: "..", seed: 7, tiny: true}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				o, err := measure(context.Background(), e, w, 4*time.Second, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !o.Correct || o.Invalid != "" || o.Failed != 0 || o.Attempted == 0 {
					t.Fatalf("correct=%v invalid=%q attempted=%d failed=%d mismatch=%v", o.Correct, o.Invalid, o.Attempted, o.Failed, o.Mismatch)
				}
				if w.name == "serve-mixed" && (o.Checked["coverage"] == 0 || o.Checked["beam"] == 0) {
					t.Errorf("no coverage or beam response was checked: %v", o.Checked)
				}
				var buf bytes.Buffer
				printReport(&buf, o)
				defs := bj.EndToEnd
				if traced {
					defs = bj.PerLayer
				}
				for _, d := range defs {
					line := regexp.MustCompile(`(?m)^# ` + regexp.QuoteMeta(w.name) + ` reported ` +
						regexp.QuoteMeta(d.Name) + ` +\S+ +` + regexp.QuoteMeta(d.Unit) + ` +n=\d+$`)
					if traced && !line.Match(buf.Bytes()) {
						t.Errorf("report lacks %s [%s] with a sample count", d.Name, d.Unit)
					}
					m, ok := o.Reported[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("result lacks %s [%s]: %+v", d.Name, d.Unit, m)
					}
					if !traced && (m.Samples < 1 || m.Value <= 0) {
						t.Errorf("end-to-end %s = %v from %d samples", d.Name, m.Value, m.Samples)
					}
				}
				if !traced {
					for _, d := range defs {
						line := regexp.MustCompile(`(?m)^# ` + regexp.QuoteMeta(w.name) + ` untraced ` +
							regexp.QuoteMeta(d.Name) + ` +\S+ +` + regexp.QuoteMeta(d.Unit) + ` +n=\d+$`)
						if !line.Match(buf.Bytes()) {
							t.Errorf("report lacks %s [%s] with a sample count", d.Name, d.Unit)
						}
					}
				}
			})
		}
	}
}

// TestPerturbedReferenceFailsCheck flips one reference digest and
// expects the output check to fail.
func TestPerturbedReferenceFailsCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	for _, name := range []string{"campaign-quick", "serve-mixed"} {
		t.Run(name, func(t *testing.T) {
			e := &env{root: "..", seed: 7, tiny: true, perturb: true}
			for _, w := range workloads {
				if w.name != name {
					continue
				}
				o, err := measure(context.Background(), e, w, 4*time.Second, false)
				if err != nil {
					t.Fatal(err)
				}
				if o.Correct || len(o.Mismatch) != 1 || !strings.Contains(o.Mismatch[0], "digest") {
					t.Fatalf("perturbed reference: correct=%v mismatch=%v", o.Correct, o.Mismatch)
				}
			}
		})
	}
}

// TestLightCycleFollowsServeMix checks the light stream keeps the
// operation weights of the repository's traffic profile.
func TestLightCycleFollowsServeMix(t *testing.T) {
	want := map[string]int{}
	for _, op := range gcbench.ServeLoadMix(nil) {
		want[op.Name] = op.Weight
	}
	got := map[string]int{}
	for _, k := range lightCycle {
		got[k]++
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("light cycle weights %v, ServeLoadMix %v", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 1, Start: 80, End: 90},
	}
	self := selfTimes(spans)
	if self[1] != 100-50-10 || self[2] != 30 || self[4] != 10 {
		t.Fatalf("self times %v", self)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Fatalf("median %v", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Fatalf("max %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty %v", q)
	}
}
