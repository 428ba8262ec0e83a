package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords loads the end-to-end records of one -out file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if !r.Trace {
			recs = append(recs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s holds no end-to-end record (write one with -out, without -trace 1)", path)
	}
	return recs, nil
}

// iqr is the distance between the first and third quartile; 0 for a
// single value.
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return q3 - q1
}

// setupFloorS is the least difference in setup_s that counts: set-ups of
// a millisecond move by tens of percent with the host, and 50 ms is
// below what a user notices. Its bound is max(bound x median, 0.05 s).
const setupFloorS = 0.05

// compareFiles prints, per workload and end-to-end metric, both medians,
// both spreads, the bound and a verdict: ok, regressed (b is worse than
// a by more than the bound), or unresolved (a spread exceeds the bound,
// so the medians decide nothing). Simulated outputs must also agree bit
// for bit wherever both files ran the same seed; a difference is
// reported as changed. It returns true if any verdict is not ok.
func compareFiles(pathA, pathB string, out io.Writer) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	bad := false
	fmt.Fprintf(out, "%-12s %-12s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "spread a", "spread b", "bound", "verdict")
	for _, w := range allWorkloads {
		ra, rb := ofWorkload(a, w.name), ofWorkload(b, w.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range endToEnd {
			if !applies(w, m.Name) {
				continue
			}
			xa, xb := column(ra, m.Name), column(rb, m.Name)
			ma, mb := median(xa), median(xb)
			ia, ib := iqr(xa), iqr(xb)
			worse := mb - ma
			if m.Better == "higher" {
				worse = -worse
			}
			// The bound in the metric's own unit, on each side's median.
			allowA, allowB := m.Bound*ma, m.Bound*mb
			if m.Name == "setup_s" {
				allowA, allowB = math.Max(allowA, setupFloorS), math.Max(allowB, setupFloorS)
			}
			verdict := "ok"
			switch {
			case ia > allowA || ib > allowB:
				verdict = "unresolved"
			case worse > allowA:
				verdict = "regressed"
			}
			if verdict != "ok" {
				bad = true
			}
			fmt.Fprintf(out, "%-12s %-12s %14s %14s %7.2f%% %7.2f%% %5.0f%%  %s\n",
				w.name, m.Name, fmtValue(ma), fmtValue(mb), 100*ia/ma, 100*ib/mb, 100*m.Bound, verdict)
		}
		same, diff := 0, []uint64{}
		for _, x := range ra {
			for _, y := range rb {
				if x.Seed != y.Seed {
					continue
				}
				if x.Digest == y.Digest {
					same++
				} else {
					diff = append(diff, x.Seed)
				}
			}
		}
		sort.Slice(diff, func(i, j int) bool { return diff[i] < diff[j] })
		switch {
		case len(diff) > 0:
			bad = true
			fmt.Fprintf(out, "%-12s simulated outputs changed at seed(s) %v\n", w.name, diff)
		case same > 0:
			fmt.Fprintf(out, "%-12s simulated outputs bit-identical on %d same-seed pair(s)\n", w.name, same)
		default:
			fmt.Fprintf(out, "%-12s no seed in common: simulated outputs not compared exactly\n", w.name)
		}
	}
	return bad, nil
}

func ofWorkload(recs []record, name string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func column(recs []record, metric string) []float64 {
	xs := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = r.Metrics[metric].Value
	}
	return xs
}
