package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// side is one set of report files: every end-to-end and per-layer value
// per workload and metric, and the job digests per seed (the first file's,
// with any later file that disagrees at the same seed listed in
// mismatches).
type side struct {
	e2e, layers map[string]map[string][]float64 // workload -> metric -> runs
	digests     map[uint64]map[string]map[string]string
	mismatches  []string
}

func loadSide(paths []string) (*side, error) {
	s := &side{
		e2e:     map[string]map[string][]float64{},
		layers:  map[string]map[string][]float64{},
		digests: map[uint64]map[string]map[string]string{},
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		dst := s.e2e
		switch r.Kind {
		case "e2e":
		case "layers":
			dst = s.layers
		default:
			return nil, fmt.Errorf("%s: not a benchmark report (kind %q)", p, r.Kind)
		}
		bySeed := s.digests[r.Manifest.Seed]
		if bySeed == nil {
			bySeed = map[string]map[string]string{}
			s.digests[r.Manifest.Seed] = bySeed
		}
		for _, w := range r.Workloads {
			if dst[w.Workload] == nil {
				dst[w.Workload] = map[string][]float64{}
			}
			for name, v := range w.Metrics {
				dst[w.Workload][name] = append(dst[w.Workload][name], v.Value)
			}
			if bySeed[w.Workload] == nil {
				bySeed[w.Workload] = map[string]string{}
			}
			for _, job := range sortedKeys(w.Digests) {
				d := w.Digests[job]
				first, seen := bySeed[w.Workload][job]
				switch {
				case !seen:
					bySeed[w.Workload][job] = d
				case first != d:
					s.mismatches = append(s.mismatches, fmt.Sprintf("seed %d %s %s: %s, but %s in %s",
						r.Manifest.Seed, w.Workload, job, first, d, p))
				}
			}
		}
	}
	return s, nil
}

// verdict judges B against A under bound: unresolved when either side's
// quartile spread, as a share of its median, is wider than the bound.
func verdict(a, b []float64, higher bool, bound float64) (string, float64) {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	worse := 0.0
	switch {
	case ma != 0 && higher:
		worse = (ma - mb) / math.Abs(ma)
	case ma != 0:
		worse = (mb - ma) / math.Abs(ma)
	case mb != ma:
		worse = math.Inf(1)
	}
	spread := 0.0
	if ma != 0 {
		spread = (q3a - q1a) / math.Abs(ma)
	}
	if mb != 0 {
		spread = math.Max(spread, (q3b-q1b)/math.Abs(mb))
	}
	switch {
	case spread > bound:
		return "unresolved", worse
	case worse > bound:
		return "regression", worse
	}
	return "ok", worse
}

// runCompare compares two sets of report files, A (the parent) and B (the
// change), separated by "--". It prints each workload x end-to-end metric
// with both sides' medians and quartiles and a verdict under the bounds
// in specPath, whether the job digests of runs at the same seed match,
// and, for a regression, the per-layer metrics that moved most when
// layers.json files are among the inputs. It exits 1 on a regression or
// a digest mismatch.
func runCompare(args []string, specPath string, w io.Writer) (int, error) {
	cut := -1
	for i, a := range args {
		if a == "--" {
			cut = i
			break
		}
	}
	if cut < 1 || cut == len(args)-1 {
		return 2, errors.New("usage: -compare A.json... -- B.json...")
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		return 2, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return 2, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := loadSide(args[:cut])
	if err != nil {
		return 2, err
	}
	b, err := loadSide(args[cut+1:])
	if err != nil {
		return 2, err
	}
	code := 0
	for _, wl := range workloads {
		va, vb := a.e2e[wl.name], b.e2e[wl.name]
		if va == nil || vb == nil {
			continue
		}
		fmt.Fprintf(w, "== %s (A %d runs, B %d runs)\n", wl.name, len(va["setup_s"]), len(vb["setup_s"]))
		fmt.Fprintf(w, "   %-28s %12s %12s %12s   %12s %12s %12s   %7s  %s\n",
			"metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "worse", "verdict")
		regressed := false
		for _, m := range spec.EndToEnd {
			if len(va[m.Name]) == 0 || len(vb[m.Name]) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(va[m.Name])
			q1b, mb, q3b := quartiles(vb[m.Name])
			v, worse := verdict(va[m.Name], vb[m.Name], m.Better == "higher", m.Bound)
			if v == "regression" {
				regressed = true
				code = 1
			}
			fmt.Fprintf(w, "   %-28s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g   %+6.1f%%  %s (bound %.0f%%)\n",
				m.Name, q1a, ma, q3a, q1b, mb, q3b, worse*100, v, m.Bound*100)
		}
		if regressed {
			printMovers(w, a.layers[wl.name], b.layers[wl.name])
		}
	}
	if !compareDigests(w, a, b) {
		code = 1
	}
	return code, nil
}

// printMovers lists the per-layer metrics whose medians moved most.
func printMovers(w io.Writer, la, lb map[string][]float64) {
	if la == nil || lb == nil {
		fmt.Fprintln(w, "   (no layers.json on both sides: per-layer movers unavailable)")
		return
	}
	type mover struct {
		name   string
		a, b   float64
		change float64
	}
	var ms []mover
	for name, xs := range la {
		if len(lb[name]) == 0 {
			continue
		}
		ma, mb := median(xs), median(lb[name])
		if ma == 0 {
			continue
		}
		ms = append(ms, mover{name, ma, mb, (mb - ma) / math.Abs(ma)})
	}
	sort.Slice(ms, func(i, j int) bool { return math.Abs(ms[i].change) > math.Abs(ms[j].change) })
	if len(ms) > 5 {
		ms = ms[:5]
	}
	fmt.Fprintln(w, "   per-layer metrics that moved most:")
	for _, m := range ms {
		fmt.Fprintf(w, "     %-34s %12.6g -> %12.6g  %+7.1f%%\n", m.name, m.a, m.b, m.change*100)
	}
}

// compareDigests checks that all runs at the same seed, on either side,
// produced identical job digests, and reports whether they did.
func compareDigests(w io.Writer, a, b *side) bool {
	same, jobs := true, 0
	for _, s := range []struct {
		name string
		side *side
	}{{"A", a}, {"B", b}} {
		for _, m := range s.side.mismatches {
			same = false
			fmt.Fprintf(w, "DIGEST MISMATCH within %s, %s\n", s.name, m)
		}
	}
	for seed, wa := range a.digests {
		wb := b.digests[seed]
		for _, wl := range sortedKeys(wa) {
			if wb[wl] == nil {
				continue
			}
			for _, job := range sortedKeys(wa[wl]) {
				db, ok := wb[wl][job]
				if !ok {
					continue
				}
				jobs++
				if da := wa[wl][job]; da != db {
					same = false
					fmt.Fprintf(w, "DIGEST MISMATCH seed %d %s %s: %s vs %s\n", seed, wl, job, da, db)
				}
			}
		}
	}
	switch {
	case !same:
	case jobs == 0:
		fmt.Fprintln(w, "digests: WARNING, the two sides share no seed and workload, so no digest was compared")
	default:
		fmt.Fprintf(w, "digests: %d jobs compared at shared seeds, all identical\n", jobs)
	}
	return same
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
