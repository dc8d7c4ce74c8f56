package main

import (
	"testing"
)

// small is w at an eighth of the heap and a hundredth of the operations:
// the same code path as a measured run, in a fraction of a second.
func small(w workload) workload {
	w.heapBytes /= 8
	w.refOps /= 100
	if w.cycleOps > 0 {
		w.cycleOps = w.refOps / 4
	}
	return w
}

// TestWorkloadsSmoke runs every workload twice — untraced, then traced —
// through the path the driver uses. run itself fails unless the power
// failure was survived, durability verified, nothing quarantined and
// every key on the recovered system equal to the oracle; tracedPass fails
// unless the spans nest and, on the closed loops, the two runs' digests
// are identical. What is left to assert here is that nothing was shed and
// that the bypass predictions README.md makes hold.
func TestWorkloadsSmoke(t *testing.T) {
	outDir = t.TempDir()
	rung := map[string]float64{}
	for _, r := range rungs {
		for _, suffix := range []string{"_host_ns", "_vns", "_allocs"} {
			rung["rung."+r.name+suffix] = 0 // the rungs have their own test
		}
	}
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			m, layer, err := tracedPass(w, 1, limit{ops: w.refOps}, rung)
			if err != nil {
				t.Fatal(err)
			}
			if m.attempted != w.refOps || m.failed != 0 || len(m.lat) != w.refOps {
				t.Fatalf("attempted %d, failed %d, %d latency samples; want %d, 0, %d",
					m.attempted, m.failed, len(m.lat), w.refOps, w.refOps)
			}
			if m.pf.failures == 0 || m.pf.energyFracMax <= 0 || m.pf.energyFracMax >= 1 {
				t.Fatalf("%d power failures, worst energy fraction %v; want at least one, inside (0,1)",
					m.pf.failures, m.pf.energyFracMax)
			}
			zero := func(name string) {
				if v := layer[name].Value; v != 0 {
					t.Errorf("%s = %v on %s, predicted 0", name, v, w.name)
				}
			}
			positive := func(name string) {
				if v := layer[name].Value; v <= 0 {
					t.Errorf("%s = %v on %s, predicted > 0", name, v, w.name)
				}
			}
			if !w.idem {
				zero("intent.begins")
			} else {
				positive("intent.begins")
			}
			if w.budgetFrac > 1 {
				zero("core.forced_cleans")
				zero("ssd.bytes_per_op")
			}
			if w.openRate > 0 {
				positive("serve.queue_wait_vus_p99")
			} else {
				zero("serve.queue_wait_vus_p99")
			}
		})
	}
}

// TestDigestRepeats: two untraced in-process runs of a closed loop at a
// fixed operation count decide exactly the same things.
func TestDigestRepeats(t *testing.T) {
	w := small(workloads[0])
	var digests [2]string
	for i := range digests {
		m, _, err := untracedPass(w, 7, limit{ops: w.refOps}, 1)
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = m.digest()
	}
	if digests[0] != digests[1] {
		t.Fatalf("vstate_digest differs between two runs of %s: %s vs %s", w.name, digests[0], digests[1])
	}
}

// TestMetricNamesMatchBenchmarkJSON holds the program to the contract
// file: same workloads, same metric names, same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	var decl benchmarkFile
	if err := readJSON("../BENCHMARK.json", &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, decl.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, declared []declared, have []nameUnit) {
		if len(declared) != len(have) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(declared), len(have))
		}
		units := map[string]string{}
		for _, nu := range have {
			units[nu.name] = nu.unit
		}
		for _, d := range declared {
			if u, ok := units[d.Name]; !ok {
				t.Errorf("%s: BENCHMARK.json lists %q, which the program does not report", kind, d.Name)
			} else if u != d.Unit {
				t.Errorf("%s: %q is in %q in BENCHMARK.json, %q in the program", kind, d.Name, d.Unit, u)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEndMetrics)
	check("per_layer", decl.PerLayer, perLayerMetrics)
}

// TestRungsSmoke runs each rung for its minimum of two rounds; the rungs
// check themselves (the forced-clean rung that it is on the forced path,
// the epoch rung that the dirty set stayed resident).
func TestRungsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds thirteen 64 MiB stacks")
	}
	rung, err := runRungs(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rungs {
		if v := rung["rung."+r.name+"_host_ns"]; v <= 0 {
			t.Errorf("rung %s: %v host ns per call", r.name, v)
		}
	}
}
