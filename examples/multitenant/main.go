// multitenant: the paper's §6.3 deployment vision — "cloud providers can
// employ techniques similar to memory ballooning to reallocate
// battery/dirty-budget among co-located tenants and benefit from inherent
// statistical multiplexing effects."
//
// Two tenants share one server battery: a bursty interactive service and
// a quiet background one. The example runs the repo's tenancy experiment
// (experiments.RunTenancyExperiment) at seed 7 — the pair once with a
// rigid half-and-half battery split and once with a pressure-driven pool —
// and narrates it. It exits non-zero unless pooling cut the bursty
// tenant's forced cleans.
//
// Run with:
//
//	go run ./examples/multitenant
package main

import (
	"fmt"
	"log"
	"os"

	"viyojit/internal/experiments"
)

func main() {
	r, err := experiments.RunTenancyExperiment(7, 400)
	if err != nil {
		log.Fatal(err)
	}
	experiments.FprintTenancy(os.Stdout, r)
	if r.PooledForcedCleans >= r.StaticForcedCleans {
		fmt.Printf("\npooling did not help the bursty tenant: %d forced cleans pooled vs %d static\n",
			r.PooledForcedCleans, r.StaticForcedCleans)
		os.Exit(1)
	}
	cut := float64(r.StaticForcedCleans-r.PooledForcedCleans) / float64(r.StaticForcedCleans) * 100
	fmt.Printf("\nstatistical multiplexing cut the bursty tenant's budget stalls by %.0f%% (%d → %d forced cleans);\n"+
		"the quiet tenant ends on a %d-page grant\n",
		cut, r.StaticForcedCleans, r.PooledForcedCleans, r.PooledQuietGrant)
}
