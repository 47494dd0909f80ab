// Command benchpairs compares the working tree with a parent revision on one
// workload of the repository benchmark, by the rule of benchmark/README.md
// "Reading a paired comparison": it builds both sides once (the parent
// from a `git archive` of it in a temporary directory), runs ten pairs on the seeds
// `benchmark selfcheck` uses, each run as long as BENCHMARK.json's
// run_seconds, alternating which side goes first, and writes to
// BENCH_<workload>.json every run's result line and, per end-to-end metric of
// BENCHMARK.json, each side's median and quartiles, the pairs the change won
// and the verdict.
//
//	go run ./tools/benchpairs -parent HEAD~1 -workload hive_shuffle
//
// `make bench-pairs PARENT=<rev> WORKLOAD=<w>` runs it. Run it from the
// repository root; the temporary directory follows TMPDIR.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// seeds are the first ten of benchmark/selfcheck.go's selfcheckSeeds.
var seeds = []uint64{11, 23, 37, 41, 53, 67, 79, 83, 97, 101}

// resultLine is the last line a benchmark run prints.
type resultLine struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

type run struct {
	Pair   int        `json:"pair"`
	Seed   uint64     `json:"seed"`
	Order  int        `json:"order"` // 1: ran first in its pair, 2: second
	Side   string     `json:"side"`  // "parent" or "change"
	Result resultLine `json:"result"`
}

type sideStats struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type verdict struct {
	Unit      string    `json:"unit"`
	Better    string    `json:"better"`
	Bound     float64   `json:"bound"`
	Parent    sideStats `json:"parent"`
	Change    sideStats `json:"change"`
	PairsWon  int       `json:"pairs_won"`
	Pairs     int       `json:"pairs"`
	Improved  bool      `json:"improved"`
	Regressed bool      `json:"regressed"`
	// Unresolved: the parent's own spread (interquartile distance over
	// median) is wider than the bound.
	Unresolved bool `json:"unresolved"`
}

type report struct {
	Workload string             `json:"workload"`
	Seconds  float64            `json:"seconds"`
	Parent   string             `json:"parent"`
	Change   string             `json:"change"`
	Command  string             `json:"command"`
	Runs     []run              `json:"runs"`
	Metrics  map[string]verdict `json:"metrics"`
}

type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	parent := flag.String("parent", "", "revision to compare the working tree with")
	workload := flag.String("workload", "", "benchmark workload")
	flag.Parse()
	if *parent == "" || *workload == "" {
		log.Fatal("benchpairs: -parent and -workload are required")
	}
	if err := compare(*parent, *workload); err != nil {
		log.Fatal("benchpairs: ", err)
	}
}

func compare(parent, workload string) (err error) {
	var spec struct {
		RunSeconds float64    `json:"run_seconds"`
		EndToEnd   []endToEnd `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		return fmt.Errorf("reading BENCHMARK.json: %w", err)
	}

	tmp, err := os.MkdirTemp("", "benchpairs")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	rev, err := output("", "git", "rev-parse", parent)
	if err != nil {
		return err
	}
	// An archive, not a worktree: the parent's copy leaves nothing in the
	// repository's own git state, whichever way the run ends.
	tree, archive := filepath.Join(tmp, "parent"), filepath.Join(tmp, "parent.tar")
	if err := os.Mkdir(tree, 0o755); err != nil {
		return err
	}
	if _, err := output("", "git", "archive", "-o", archive, rev); err != nil {
		return err
	}
	if _, err := output("", "tar", "-xf", archive, "-C", tree); err != nil {
		return err
	}
	bins := map[string]string{"parent": filepath.Join(tmp, "bench-parent"), "change": filepath.Join(tmp, "bench-change")}
	dirs := map[string]string{"parent": tree, "change": "."}
	for side, bin := range bins {
		if _, err := output(dirs[side], "go", "build", "-o", bin, "./benchmark"); err != nil {
			return err
		}
	}

	head, err := output("", "git", "rev-parse", "HEAD")
	if err != nil {
		return err
	}
	if dirty, err := output("", "git", "status", "--porcelain", "--untracked-files=no"); err != nil {
		return err
	} else if dirty != "" {
		head += " with uncommitted changes"
	}
	seconds := spec.RunSeconds
	rep := report{Workload: workload, Seconds: seconds, Parent: rev, Change: "working tree at " + head,
		Command: fmt.Sprintf("go run ./benchmark --workload %s --seed <seed> --seconds %g --trace 0", workload, seconds),
		Metrics: map[string]verdict{}}
	for pair, seed := range seeds {
		order := []string{"parent", "change"}
		if pair%2 == 1 {
			order = []string{"change", "parent"}
		}
		for i, side := range order {
			args := []string{"--workload", workload, "--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
			stdout, err := output(dirs[side], bins[side], args...)
			if err != nil {
				return err
			}
			lines := strings.Split(stdout, "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", side, seed, err)
			}
			rep.Runs = append(rep.Runs, run{Pair: pair + 1, Seed: seed, Order: i + 1, Side: side, Result: res})
			log.Printf("pair %d seed %d %s: correct %v, %d failed", pair+1, seed, side, res.Correct, res.Failed)
		}
	}

	for _, m := range spec.EndToEnd {
		values := map[string][]float64{}
		for _, r := range rep.Runs {
			var v struct{ Value float64 }
			if msg, ok := r.Result.Metrics[m.Name]; ok && json.Unmarshal(msg, &v) == nil {
				values[r.Side] = append(values[r.Side], v.Value)
			}
		}
		p, c := values["parent"], values["change"]
		if len(p) != len(seeds) || len(c) != len(seeds) {
			continue // the workload does not report it
		}
		rep.Metrics[m.Name] = judge(m, p, c)
	}

	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_"+workload+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, name := range slices.Sorted(maps.Keys(rep.Metrics)) {
		v := rep.Metrics[name]
		fmt.Printf("%-20s parent %10.4g [%.4g, %.4g]  change %10.4g [%.4g, %.4g]  won %d/%d  improved %v  regressed %v  unresolved %v\n",
			name, v.Parent.Median, v.Parent.Q1, v.Parent.Q3, v.Change.Median, v.Change.Q1, v.Change.Q3,
			v.PairsWon, v.Pairs, v.Improved, v.Regressed, v.Unresolved)
	}
	return nil
}

// judge applies the paired rule to one metric's values, pair i being
// parent[i] and change[i].
func judge(m endToEnd, parent, change []float64) verdict {
	v := verdict{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Parent: stats(parent), Change: stats(change), Pairs: len(parent)}
	// gain is how much better b is than a, positive when better.
	gain := func(a, b float64) float64 {
		if m.Better == "higher" {
			return b - a
		}
		return a - b
	}
	for i := range parent {
		if gain(parent[i], change[i]) > 0 {
			v.PairsWon++
		}
	}
	d := gain(v.Parent.Median, v.Change.Median)
	v.Improved = v.PairsWon*10 >= 9*v.Pairs && d > v.Parent.Q3-v.Parent.Q1
	v.Regressed = -d > m.Bound*v.Parent.Median
	v.Unresolved = v.Parent.Median != 0 && (v.Parent.Q3-v.Parent.Q1)/v.Parent.Median > m.Bound
	return v
}

// stats returns the median and quartiles by the "exclusive" method of
// Python's statistics.quantiles(xs, n=4), as benchmark/stats.go does.
func stats(xs []float64) sideStats {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return sideStats{Median: at(2), Q1: at(1), Q3: at(3)}
}

// output runs a command in dir ("" for the current directory) and returns
// its standard output, trimmed; its standard error goes into the error.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%s %s: %w\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return strings.TrimSpace(stdout.String()), nil
}
