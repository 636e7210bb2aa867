// Example service-client drives a running unisonserved daemon through
// the public client package: it runs a small Figure 7-style speedup
// sweep whose Plan.Executor sends each run to the daemon, prints the
// results, runs the identical sweep again, and shows — straight from the
// daemon's /metrics — that the repeat came out of the content-addressed
// result cache without simulating anything.
//
// Start a daemon, then run the example:
//
//	go run ./cmd/unisonserved -addr 127.0.0.1:8080 &
//	go run ./examples/service-client -server http://127.0.0.1:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	uc "unisoncache"
	"unisoncache/client"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:8080", "unisonserved base URL")
	accesses := flag.Int("accesses", 20_000, "accesses per core")
	flag.Parse()

	cl := client.New(*server)
	ctx := context.Background()
	if _, err := cl.Health(ctx); err != nil {
		fatal(fmt.Errorf("cannot reach %s (start one with: go run ./cmd/unisonserved): %w", *server, err))
	}

	points := uc.Sweep{
		Base:    uc.Run{Workload: "web-search", Capacity: 1 << 30, Cores: 4, AccessesPerCore: *accesses},
		Designs: []uc.DesignKind{uc.DesignAlloy, uc.DesignFootprint, uc.DesignUnison},
	}.Points()

	plan := uc.Plan{
		Points:   points,
		Executor: func(r uc.Run) (uc.Result, error) { return cl.Execute(ctx, r) },
	}
	sweep := func(label string) {
		results, err := uc.SpeedupMany(plan)
		if err != nil {
			fatal(err)
		}
		m, err := cl.Metrics(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s:\n", label)
		for i, r := range results {
			fmt.Printf("  %-10s speedup %.2fx  (miss %.1f%%)\n",
				points[i].Design, r.Speedup, r.Design.MissRatioPct())
		}
		fmt.Printf("  daemon totals: %.0f simulated, %.0f served from cache\n",
			m["unisonserved_cache_misses_total"], m["unisonserved_cache_hits_total"])
	}

	sweep("first submission (simulates)")
	sweep("identical resubmission (content-addressed cache)")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "service-client:", err)
	os.Exit(1)
}
