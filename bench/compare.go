package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads:
// the metric lists, with each end-to-end metric's direction and bound.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles holds reference pass b against reference pass a: the
// vstate_digest of every closed-loop workload must be identical (a
// host-only change may not move a simulated statistic), and no
// end-to-end metric may be worse in b than in a by more than its bound
// in BENCHMARK.json. It runs from the root of the repo.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench -compare a.json b.json")
	}
	var decl benchmarkFile
	var a, b referenceFile
	for path, v := range map[string]any{"BENCHMARK.json": &decl, args[0]: &a, args[1]: &b} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	if a.Seed != b.Seed {
		return fmt.Errorf("bench: %s ran seed %d, %s seed %d: not comparable", args[0], a.Seed, args[1], b.Seed)
	}
	bad := 0
	for _, pa := range a.Workloads {
		var pb *passResult
		for i := range b.Workloads {
			if b.Workloads[i].Workload == pa.Workload {
				pb = &b.Workloads[i]
			}
		}
		if pb == nil {
			return fmt.Errorf("bench: %s has no %s", args[1], pa.Workload)
		}
		w, _ := findWorkload(pa.Workload)
		switch {
		case w.openRate > 0:
			fmt.Printf("%s: open loop, digest not required to repeat\n", pa.Workload)
		case pa.Digest == pb.Digest:
			fmt.Printf("%s: vstate_digest identical\n", pa.Workload)
		default:
			bad++
			fmt.Printf("%s: vstate_digest DIFFERS: %s vs %s\n", pa.Workload, pa.Digest, pb.Digest)
		}
		if pb.Failed > pa.Failed {
			bad++
			fmt.Printf("  failed operations rose from %d to %d\n", pa.Failed, pb.Failed)
		}
		for _, d := range decl.EndToEnd {
			va, vb := pa.EndToEnd[d.Name].Value, pb.EndToEnd[d.Name].Value
			worse := ratio(vb-va, va)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "WORSE THAN BOUND"
				bad++
			}
			fmt.Printf("  %-24s %16.4f -> %16.4f  %+7.2f %% worse (bound %.0f %%)  %s\n",
				d.Name, va, vb, worse*100, d.Bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("bench: compare: %d violations", bad)
	}
	fmt.Println("compare: pass")
	return nil
}
