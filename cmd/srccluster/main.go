// Command srccluster runs the cluster-layer churn harness from the command
// line: per seed, a replicated netblock fleet is driven through a guarded
// membership-chaos schedule — kills, restarts, disk wipes, fail-slow links,
// partitions, and join/leave rebalances overlapping live traffic — while
// the model volume checks that no acknowledged write is ever lost and no
// request fails while a healthy replica of its range exists.
//
// Usage:
//
//	srccluster                 # seeds 1..50
//	srccluster -seeds 500      # wider sweep
//	srccluster -seed 11 -v     # one seed, full counter detail
//	srccluster -json           # violations as NDJSON (CI annotations)
//	srccluster -supervised     # the control plane itself crashes too
//
// Every run drives rebalances through the control-plane core the
// supervisor daemon runs. With -supervised that core can itself crash and
// is recovered from its journal, and each seed class composes one
// control-plane fault on top of the data-plane chaos: supervisor death
// mid-commit, node crash during repair during rebalance, or a fail-slow
// head during a join.
//
// The default report is one summary line per seed plus aggregate latency
// digests; exit status is 1 if any invariant was violated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"srccache/internal/cluster"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "srccluster:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// violationJSON is the NDJSON shape -json emits, one line per violated
// seed — stable fields for jq-driven CI annotations.
type violationJSON struct {
	Seed       int64    `json:"seed"`
	Violations []string `json:"violations"`
	FailedOps  int      `json:"failed_ops"`
	VerifyErrs int      `json:"verify_errors"`
	Signature  string   `json:"signature"`
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("srccluster", flag.ContinueOnError)
	var (
		seeds    = fs.Int64("seeds", 50, "run seeds 1..N")
		seed     = fs.Int64("seed", 0, "run this single seed instead of -seeds")
		ops      = fs.Int("ops", 0, "client operations per seed (default 400)")
		nodes    = fs.Int("nodes", 0, "initial fleet size (default 5)")
		replicas = fs.Int("replicas", 0, "replication factor (default 3)")
		asJSON   = fs.Bool("json", false, "emit violations as NDJSON instead of the report")
		verbose  = fs.Bool("v", false, "full per-seed counters")
		suprv    = fs.Bool("supervised", false, "crash and recover the control-plane core (composed supervisor faults)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	var list []int64
	if *seed != 0 {
		list = []int64{*seed}
	} else {
		for s := int64(1); s <= *seeds; s++ {
			list = append(list, s)
		}
	}

	enc := json.NewEncoder(stdout)
	violated := 0
	totalOps := 0
	for _, s := range list {
		res, err := cluster.Sim(cluster.SimConfig{
			Seed: s, Ops: *ops, Nodes: *nodes, Replicas: *replicas,
			Supervised: *suprv,
		})
		if err != nil {
			return 2, err
		}
		totalOps += res.Ops
		v := res.Violations()
		if len(v) > 0 {
			violated++
		}
		switch {
		case *asJSON:
			if len(v) > 0 {
				if err := enc.Encode(violationJSON{
					Seed: s, Violations: v, FailedOps: res.FailedOps,
					VerifyErrs: res.VerifyErrors, Signature: res.Signature(),
				}); err != nil {
					return 2, err
				}
			}
		case *verbose:
			fmt.Fprintf(stdout, "seed %3d: %+v\n", s, res)
		default:
			line := fmt.Sprintf(
				"seed %3d: ops %4d kills %d wipes %d cuts %d joins %d leaves %d commits %d aborts %d repaired %3d",
				s, res.Ops, res.Kills, res.Wipes, res.Partitions, res.Joins, res.Leaves,
				res.Commits, res.Aborts, res.RangesRepaired)
			if *suprv {
				line += fmt.Sprintf(" supkills %d midcommit %d resumes %d",
					res.SupKills, res.MidCommitCrashes, res.SupResumes)
			}
			fmt.Fprintf(stdout, "%s  read p99 %-10v write p99 %-10v %s\n",
				line, res.ReadLat.P99, res.WriteLat.P99, status(v))
		}
	}
	if !*asJSON {
		fmt.Fprintf(stdout, "\n%d seeds, %d client ops, %d violated\n", len(list), totalOps, violated)
	}
	if violated > 0 {
		return 1, nil
	}
	return 0, nil
}

func status(v []string) string {
	if len(v) == 0 {
		return "ok"
	}
	return fmt.Sprintf("VIOLATED: %v", v)
}
