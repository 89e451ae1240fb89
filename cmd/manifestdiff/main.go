// Command manifestdiff compares two campaign manifests, so CI and
// operators can assert that a campaign assembled from stored cells (a
// resumed run, or -shard runs over one cell store) reproduced an
// unsharded reference:
//
//	manifestdiff a.json b.json
//
// Structural fields — name, job counts, point identities, metric names,
// and N, min, max — must match exactly. Mean, standard deviation, and
// CI95 must agree within a relative tolerance (-tol, default 1e-9):
// equal specs reproduce them bit for bit, cells assembled from a store
// included, so the tolerance only forgives floating-point noise between
// manifests computed differently, such as those of older builds. Medians are
// compared only when both sides are exact; a median marked
// median_approx (the streaming P-squared estimate beyond five
// replicates) is an estimate and is skipped. Execution metadata —
// worker counts, fresh-build and cell-range fields — is ignored: it
// changes wall clock, never results. For byte identity, use cmp.
//
// The comparison itself is dispatch.DiffManifests; cmd/runlog diff
// applies the same contract to the manifests of two ledger records.
//
// Exit status: 0 when equivalent, 1 when the manifests differ, 2 on
// usage or read errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"wsncover/internal/dispatch"
)

func main() {
	tol := flag.Float64("tol", 1e-9, "relative tolerance for mean/stddev/CI95")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: manifestdiff [-tol t] a.json b.json")
		os.Exit(2)
	}
	diffs, err := dispatch.DiffManifests(flag.Arg(0), flag.Arg(1), *tol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "manifestdiff:", err)
		os.Exit(2)
	}
	if len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Println(d)
		}
		fmt.Printf("%d difference(s) between %s and %s\n", len(diffs), flag.Arg(0), flag.Arg(1))
		os.Exit(1)
	}
	fmt.Printf("%s and %s are equivalent (modulo estimated medians and execution metadata)\n",
		flag.Arg(0), flag.Arg(1))
}
