package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smoke runs every workload at a hundredth of its frozen size: enough
// for every check in the command (conservation, kills == recoveries,
// borrowing, digests) to run, small enough for go test -short ./...
func smoke(seed uint64, trace bool) options {
	return options{seed: seed, seconds: 1e-9, scale: 0.01, trace: trace}
}

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var d declared
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationMatchesTables: BENCHMARK.json and the tables in
// metrics.go and workloads.go are the same declaration.
func TestDeclarationMatchesTables(t *testing.T) {
	d := readDeclared(t)
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", d.Paths)
	}
	if len(d.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads declared, %d built", len(d.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, built {%s %s}", i, d.Workloads[i], w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []declaredMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in the table", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s metric %d: declared %+v, table %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound declared %v, table %v", kind, m.Name, g.Bound, m.Bound)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s metric %q unit %q: outside the allowed characters", kind, m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s metric %s: better = %q", kind, m.Name, m.Better)
			}
			if seen[m.Name] {
				t.Errorf("metric name %s used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, true)
	check("per_layer", d.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower is better")
	}
}

// checkFinalLine: the result object has exactly the four keys, and its
// metrics are exactly the declared ones, once each, with their units.
func checkFinalLine(t *testing.T, rec record, want []metricDef) {
	t.Helper()
	line, err := finalLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Fatalf("result keys: %s", line)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, %d declared", rec.Workload, len(metrics), len(want))
	}
	for _, m := range want {
		got, ok := metrics[m.Name]
		if !ok {
			t.Errorf("%s: %s not printed", rec.Workload, m.Name)
			continue
		}
		if len(got) != 2 || got["unit"] != m.Unit {
			t.Errorf("%s: %s printed as %v, want unit %s", rec.Workload, m.Name, got, m.Unit)
		}
		if _, isNum := got["value"].(float64); !isNum {
			t.Errorf("%s: %s value is %v", rec.Workload, m.Name, got["value"])
		}
	}
	if !rec.Correct || rec.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d", rec.Workload, rec.Correct, rec.Attempted)
	}
	// Every op asked for was simulated to a terminal outcome. What the
	// modelled system refused is in ok_frac (fail_frac traced), and only
	// the serving workloads refuse anything.
	if rec.Failed != 0 {
		t.Errorf("%s: failed = %d of %d in a result that was printed", rec.Workload, rec.Failed, rec.Attempted)
	}
	refused := 1 - rec.Metrics["ok_frac"].Value
	if rec.Trace {
		refused = rec.Metrics["fail_frac"].Value
	}
	if w, _ := findWorkload(rec.Workload); (w.kind == serving) != (refused > 0) {
		t.Errorf("%s: refused share = %v; only the serving workloads refuse requests", rec.Workload, refused)
	}
}

// TestEndToEndEveryWorkload runs each workload untraced at two seeds:
// every end-to-end metric is printed once with its unit, none is 0, and
// another seed is another simulation.
func TestEndToEndEveryWorkload(t *testing.T) {
	for _, w := range allWorkloads {
		rec, err := measureEndToEnd(w, smoke(1021, false))
		if err != nil {
			t.Fatal(err)
		}
		checkFinalLine(t, rec, endToEnd)
		if rec.Reps < minReps {
			t.Errorf("%s: %d reps, want at least %d", w.name, rec.Reps, minReps)
		}
		for _, m := range endToEnd {
			v := rec.Metrics[m.Name].Value
			if v <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric is never 0", w.name, m.Name, v)
			}
			if !applies(w, m.Name) && v != na {
				t.Errorf("%s: %s does not apply and reads %v", w.name, m.Name, v)
			}
		}
		other, err := runRep(w, runParams{seed: 7, scale: 0.01, workers: 1}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if other.out.digest() == rec.Digest {
			t.Errorf("%s: seeds 1021 and 7 give the same digest %s", w.name, rec.Digest)
		}
	}
}

// TestPodMixOnTwoWorkers: pod_mix is one simulation at any worker count
// (the traced run checks the same at full size).
func TestPodMixOnTwoWorkers(t *testing.T) {
	mix, _ := findWorkload("pod_mix")
	a, err := runRep(mix, runParams{seed: 3, scale: 0.01, workers: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRep(mix, runParams{seed: 3, scale: 0.01, workers: 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameDigest("pod_mix on 2 workers against 1", a.out, b.out); err != nil {
		t.Error(err)
	}
}

// TestTracedEveryWorkload runs the traced run (and with it every layer
// driver) per workload: every per-layer metric is printed once with its
// unit, the shares add up to 1, and the spans nest.
func TestTracedEveryWorkload(t *testing.T) {
	for _, w := range allWorkloads {
		rec, tr, err := measureLayers(w, smoke(1021, true))
		if err != nil {
			t.Fatal(err)
		}
		checkFinalLine(t, rec, perLayer)
		if ratio := rec.Metrics["core.par_ratio"].Value; w.parRatio != (ratio > 0) {
			t.Errorf("%s: core.par_ratio = %v", w.name, ratio)
		}
		sum := 0.0
		for name, m := range rec.Metrics {
			if strings.HasPrefix(name, "share.") {
				sum += m.Value
			}
			if strings.HasSuffix(name, "_ns") && m.Value <= 0 {
				t.Errorf("%s: unit cost %s = %v", w.name, name, m.Value)
			}
		}
		if sum < 0.999999 || sum > 1.000001 {
			t.Errorf("%s: shares add up to %v", w.name, sum)
		}
		names := map[string]bool{}
		for i, s := range tr.spans {
			names[s.Name] = true
			if s.EndNs < s.StartNs || s.Parent >= i || s.Workload != w.name || s.Layer == "" {
				t.Fatalf("%s: bad span %d: %+v", w.name, i, s)
			}
			if p := s.Parent; p >= 0 && (tr.spans[p].StartNs > s.StartNs || tr.spans[p].EndNs < s.EndNs) {
				t.Fatalf("%s: span %d %+v is not inside its parent %+v", w.name, i, s, tr.spans[p])
			}
		}
		for _, want := range []string{"rep", "measured", "collect", "layer_drivers", "schedule_dispatch", "read_fault", "jump"} {
			if !names[want] {
				t.Errorf("%s: no %q span", w.name, want)
			}
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := tr.write(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var back []span
		if err := json.Unmarshal(data, &back); err != nil || len(back) != len(tr.spans) {
			t.Errorf("%s: trace file does not read back: %v", w.name, err)
		}
	}
}

// TestDigestMismatchIsReported: two different simulations are an error
// that shows both sides.
func TestDigestMismatchIsReported(t *testing.T) {
	a := simOut{Ops: 10, Counters: map[string]uint64{"accesses": 10}}
	b := simOut{Ops: 10, Counters: map[string]uint64{"accesses": 11}}
	if err := sameDigest("x", a, a); err != nil {
		t.Fatal(err)
	}
	err := sameDigest("x", a, b)
	if err == nil || !strings.Contains(err.Error(), "accesses:10") || !strings.Contains(err.Error(), "accesses:11") {
		t.Fatalf("mismatch error = %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 3 = %v, %v", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, metric string, xs []float64, digest string) string {
		path := filepath.Join(dir, name)
		for i, x := range xs {
			rec := record{Workload: "rack_tf", Seed: uint64(i + 1), Digest: digest, Metrics: map[string]metricOut{}}
			for _, m := range endToEnd {
				rec.Metrics[m.Name] = metricOut{1, m.Unit}
			}
			rec.Metrics[metric] = metricOut{x, ""}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	rates := write("a", "ops_per_sec", []float64{100, 101, 99, 100, 102}, "d1")
	// A millisecond set-up: the 0.05 s floor decides, not 25 % of it.
	setups := write("b", "setup_s", []float64{0.0010, 0.0011, 0.0009, 0.0010, 0.0012}, "d1")
	for _, c := range []struct {
		name, metric, want string
		base               string
		xs                 []float64
		digest             string
		bad                bool
	}{
		{"same", "ops_per_sec", " ok", rates, []float64{101, 100, 99, 100, 100}, "d1", false},
		{"slow", "ops_per_sec", "regressed", rates, []float64{60, 61, 59, 60, 60}, "d1", true},
		{"noisy", "ops_per_sec", "unresolved", rates, []float64{60, 100, 140, 80, 120}, "d1", true},
		{"drift", "ops_per_sec", "changed", rates, []float64{101, 100, 99, 100, 100}, "d2", true},
		{"setup-jitter", "setup_s", " ok", setups, []float64{0.0020, 0.0008, 0.0030, 0.0015, 0.0025}, "d1", false},
		{"setup-slow", "setup_s", "regressed", setups, []float64{0.0610, 0.0600, 0.0620, 0.0605, 0.0615}, "d1", true},
		{"setup-noisy", "setup_s", "unresolved", setups, []float64{0.2, 0.6, 0.4, 0.3, 0.5}, "d1", true},
	} {
		var out bytes.Buffer
		bad, err := compareFiles(c.base, write(c.name, c.metric, c.xs, c.digest), &out)
		if err != nil {
			t.Fatal(err)
		}
		if bad != c.bad || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: bad=%v, output:\n%s", c.name, bad, out.String())
		}
	}
}
