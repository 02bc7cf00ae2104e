package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the command must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// smokeOptions runs a workload briefly: one set-up, a fifth of the
// warm-up and a 3-second window, enough for every percentile to rest on
// ten samples beyond it.
func smokeOptions(trace bool) *options {
	o := defaultOptions(7, 3*time.Second, trace)
	o.setups, o.warmup = 1, 0.2
	return o
}

// metricNames returns the sorted names of want.
func metricNames(want []struct{ name, unit string }) []string {
	var names []string
	for _, m := range want {
		names = append(names, m.name)
	}
	sort.Strings(names)
	return names
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, smokeOptions(trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w.name, trace, res.correct, res.attempted, res.failed, res.failures)
			}
			want := metricNames(endToEnd)
			if trace {
				want = metricNames(perLayer)
			}
			var got []string
			for name, m := range res.metrics {
				got = append(got, name)
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want positive", w.name, name, m.Value)
				}
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%v prints\n%v\nwant\n%v", w.name, trace, got, want)
			}
		}
	}
}

// TestCorruptingSessionFails flips one byte of one delivered frame: the
// byte-exact check must catch it, fail the run and exit non-zero.
func TestCorruptingSessionFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads for a few seconds")
	}
	for _, name := range []string{"stream", "gateway"} {
		w, _ := workloadByName(name)
		o := smokeOptions(false)
		o.corruptFrame = 100
		res, err := runWorkload(w, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.correct || res.metrics["delivered_frac"].Value != 0 {
			t.Errorf("%s: a corrupted frame passed: correct=%v delivered_frac=%v", name, res.correct, res.metrics["delivered_frac"].Value)
		}
	}
}

// TestWrongLengthDummyFails lengthens every pacer dummy by one byte: the
// one-length check on the defended link must fail the run.
func TestWrongLengthDummyFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paced workload for a few seconds")
	}
	w, _ := workloadByName("paced")
	o := smokeOptions(false)
	o.dummyPad = 1
	res, err := runWorkload(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct {
		t.Fatal("wrong-length dummies passed the checks")
	}
	if !strings.Contains(strings.Join(res.failures, "\n"), "one length") {
		t.Errorf("failures do not name the length check: %v", res.failures)
	}
}

// TestCommandLine checks the command's contract: the last line of stdout
// is the JSON result, and unknown workloads print no result.
func TestCommandLine(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if testing.Short() {
		return
	}
	out.Reset()
	if code := run([]string{"--workload", "gateway", "--seed", "3", "--seconds", "1"}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted == 0 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", res)
	}
}

func TestInterpolateAgreesWithMedian(t *testing.T) {
	for _, xs := range [][]float64{{3}, {1, 4}, {1, 2, 9}, {1, 2, 3, 10}} {
		if got, want := interpolate(xs, 0.5), median(xs); got != want {
			t.Errorf("interpolate(%v, 0.5) = %v, median %v", xs, got, want)
		}
	}
	// 15 groups, as a 30 s window gives: the first quartile sits halfway
	// between the 4th and 5th smallest, whatever the noisy top holds.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 100, 200, 300}
	if got := interpolate(xs, 0.25); got != 4.5 {
		t.Errorf("interpolate(xs, 0.25) = %v, want 4.5", got)
	}
}
