package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// compareMain compares two sets of runs, parent and change, each a file
// holding the standard output of its runs one after another (the
// fingerprint line names each result's workload). For every workload
// and end-to-end metric it prints each side's median and quartiles, the
// share of pairs (run i of each side) the change won, and a verdict:
//
//	improved    the change won at least 9 in 10 pairs and the medians
//	            differ, in the better direction, by more than the
//	            parent's own spread (its interquartile distance)
//	no worse    the change's median is not worse than the parent's by
//	            more than the metric's bound
//	worse       it is
//	unresolved  the parent's spread exceeds the bound, so neither can be
//	            told apart from noise — unless every change run beats
//	            every parent run
//
// A gain does not count when more operations failed than at the parent.
// Alternate which side runs first when collecting the pairs.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare <parent-runs> <change-runs>")
	}
	spec, err := loadBenchSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	parent, err := readRuns(args[0])
	if err != nil {
		return err
	}
	change, err := readRuns(args[1])
	if err != nil {
		return err
	}
	workloads := make([]string, 0, len(parent))
	for w := range parent {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	fmt.Printf("%-14s %-24s %-32s %-32s %6s  %s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "won", "verdict")
	for _, w := range workloads {
		p, c := parent[w], change[w]
		if len(c) == 0 {
			fmt.Printf("%-14s (no change runs)\n", w)
			continue
		}
		moreFailures := failures(c) > failures(p)
		for _, m := range spec.EndToEnd {
			pv, cv := values(p, m.Name), values(change[w], m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			pq1, pmed, pq3 := quartiles(pv)
			cq1, cmed, cq3 := quartiles(cv)
			won := winShare(pv, cv, m.Better == "higher")
			v := verdict(pv, cv, m.Better == "higher", m.Bound, won)
			if v == "improved" && moreFailures {
				v = "no gain (more failures)"
			}
			fmt.Printf("%-14s %-24s %-32s %-32s %5.0f%%  %s\n", w, m.Name,
				fmt.Sprintf("%.4g [%.4g %.4g]", pmed, pq1, pq3),
				fmt.Sprintf("%.4g [%.4g %.4g]", cmed, cq1, cq3), 100*won, v)
		}
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runs maps a workload to its results in file order.
type runs map[string][]*result

func readRuns(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := runs{}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var fp struct {
			Fingerprint *fingerprint `json:"fingerprint"`
		}
		if json.Unmarshal([]byte(line), &fp) == nil && fp.Fingerprint != nil {
			workload = fp.Fingerprint.Workload
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err == nil && r.Metrics != nil && workload != "" {
			out[workload] = append(out[workload], &r)
		}
	}
	return out, sc.Err()
}

func values(rs []*result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func failures(rs []*result) int64 {
	var n int64
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

// winShare is the share of pairs the change won; ties count for
// neither side.
func winShare(p, c []float64, higher bool) float64 {
	n := min(len(p), len(c))
	won := 0
	for i := 0; i < n; i++ {
		if (higher && c[i] > p[i]) || (!higher && c[i] < p[i]) {
			won++
		}
	}
	return float64(won) / float64(n)
}

func verdict(p, c []float64, higher bool, bound, won float64) string {
	pq1, pmed, pq3 := quartiles(p)
	_, cmed, _ := quartiles(c)
	better := func(a, b float64) bool { // a better than b
		if higher {
			return a > b
		}
		return a < b
	}
	allBetter := true
	for _, x := range c {
		for _, y := range p {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	spread := (pq3 - pq1) / pmed
	diff := cmed - pmed
	if !higher {
		diff = -diff
	}
	switch {
	case allBetter || (won >= 0.9 && diff > pq3-pq1):
		return "improved"
	case spread > bound:
		return "unresolved"
	case -diff > bound*pmed:
		return "worse"
	default:
		return "no worse"
	}
}
