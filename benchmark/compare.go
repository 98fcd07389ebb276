package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadReportFile reads a --report file, keeping the untraced runs grouped
// by workload.
func loadReportFile(path string) (map[string][]reportLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]reportLine{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for n := 1; sc.Scan(); n++ {
		var l reportLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if l.Trace == 0 {
			out[l.Workload] = append(out[l.Workload], l)
		}
	}
	return out, sc.Err()
}

// compareReports prints, for every (workload, end-to-end metric) pair, the
// change of the median from the old report set to the new one against the
// metric's bound. A pair is unresolved when either side's interquartile
// spread exceeds the bound. The exit code is 1 when a resolved pair got
// worse by more than its bound or a workload's failed share rose, else 0.
func compareReports(out io.Writer, specPath, oldPath, newPath string) int {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", specPath, err)
		return 2
	}
	oldRuns, err := loadReportFile(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	newRuns, err := loadReportFile(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}

	regressions := 0
	var dropped []string
	for _, w := range sortedKeys(oldRuns) {
		if _, ok := newRuns[w]; !ok {
			dropped = append(dropped, w)
		}
	}
	for _, w := range sortedKeys(newRuns) {
		olds, ok := oldRuns[w]
		news := newRuns[w]
		if !ok {
			fmt.Fprintf(out, "+ %-20s new workload (%d runs)\n", w, len(news))
			continue
		}
		fmt.Fprintf(out, "%s: old %d runs (nproc %d, %s), new %d runs (nproc %d, %s)\n",
			w, len(olds), olds[0].Env.NProc, olds[0].Env.Revision, len(news), news[0].Env.NProc, news[0].Env.Revision)
		for _, m := range spec.EndToEnd {
			if runQuantiles[m.Name] && (olds[0].RunsPerPass == 1 || news[0].RunsPerPass == 1) {
				fmt.Fprintf(out, "  %-18s skipped: one run per pass, so it repeats wall_s\n", m.Name)
				continue
			}
			ov, nv := metricValues(olds, m.Name), metricValues(news, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				if len(ov) > 0 {
					dropped = append(dropped, w+" "+m.Name)
				}
				continue
			}
			om, nm := median(ov), median(nv)
			worse := (nm - om) / om
			if m.Better == "higher" {
				worse = -worse
			}
			status := "ok"
			switch {
			case spread(ov) > m.Bound || spread(nv) > m.Bound:
				status = "unresolved"
			case worse > m.Bound:
				status = "REGRESSION"
				regressions++
			case worse < -m.Bound:
				status = "improved"
			}
			fmt.Fprintf(out, "  %-18s %12.6g -> %12.6g  worse %+7.2f%% (bound %4.1f%%, spread %5.2f%% / %5.2f%%)  %s\n",
				m.Name, om, nm, 100*worse, 100*m.Bound, 100*spread(ov), 100*spread(nv), status)
		}
		of, nf := failedShare(olds), failedShare(news)
		mark := "ok"
		if nf > of {
			mark = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(out, "  %-18s %11.3f%% -> %11.3f%%  %s\n", "failed", 100*of, 100*nf, mark)
	}
	sort.Strings(dropped)
	for _, d := range dropped {
		fmt.Fprintf(out, "- %s series dropped\n", d)
	}
	if regressions > 0 {
		fmt.Fprintf(out, "benchmark: %d regressions\n", regressions)
		return 1
	}
	fmt.Fprintln(out, "benchmark: no regressions")
	return 0
}

func sortedKeys(m map[string][]reportLine) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func metricValues(ls []reportLine, name string) []float64 {
	var xs []float64
	for _, l := range ls {
		if v, ok := l.Result.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// failedShare is the share of attempted runs that failed.
func failedShare(ls []reportLine) float64 {
	var att, failed int
	for _, l := range ls {
		att += l.Result.Attempted
		failed += l.Result.Failed
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}
