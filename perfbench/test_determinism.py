#!/usr/bin/env python3
"""Determinism test for the PALEO benchmark.

    python3 perfbench/test_determinism.py

For discover, enumerate-scan and sampled it runs the benchmark four
times with one seed (untraced twice, traced twice) and once with the
next seed, then checks that

  - every run's per-list counts (executions, candidates, R' rows,
    reported queries, ...) are identical, traced or not;
  - inside a traced run, traced passes count exactly what untraced
    passes count;
  - the end-to-end counts (executions_per_list, valid_per_list,
    found_ratio), the per-layer counts and the registry counters repeat
    exactly;
  - the next seed visits the same lists in another order.

Each run takes about half a minute. Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DUMP_DIR = os.path.join(ROOT, ".bench_build", "determinism")

SEED = 11
WORKLOADS = ("discover", "enumerate-scan", "sampled")

E2E_COUNTS = ("executions_per_list", "valid_per_list", "found_ratio")
LAYER_COUNTS = (
    "paleo.rprime_rows", "paleo.candidate_predicates",
    "paleo.tuple_set_evaluations", "paleo.candidate_queries",
    "paleo.skip_events", "paleo.valid_per_execution", "paleo.deepen_share",
    "engine.rows_scanned", "engine.rows_saved", "engine.index_assisted_share",
    "engine.zone_skip_share", "engine.refuted_early_share",
    "engine.atom_cache_hit_ratio", "engine.conjunction_cache_hit_ratio",
    "engine.atom_cache_evictions", "engine.degraded_events",
)


class Run:
    """One benchmark run: its result line and its per-list dump."""

    def __init__(self, workload, seed, trace):
        dump = os.path.join(DUMP_DIR, f"{workload}-{seed}-{trace}.jsonl")
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", "1", "--trace",
               str(trace), "--dump", dump]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             check=True)
        self.result = json.loads(out.stdout.strip().splitlines()[-1])
        self.visits = {0: {}, 1: {}}  # traced flag -> list id -> counts
        self.counters = {}
        with open(dump) as f:
            for line in f:
                record = json.loads(line)
                if "counter" in record:
                    self.counters[record["counter"]] = record["value"]
                else:
                    record.pop("ms")  # a timing, not a count
                    self.visits[record.pop("traced")][record["list"]] = record

    def metric(self, name):
        return self.result["metrics"][name]["value"]

    def visit_order(self):
        return list(self.visits[0])  # dict order is the dump's line order


def main():
    os.makedirs(DUMP_DIR, exist_ok=True)

    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        plain = [Run(w, SEED, 0), Run(w, SEED, 0)]
        traced = [Run(w, SEED, 1), Run(w, SEED, 1)]
        other = Run(w, SEED + 1, 0)

        for run in plain + traced:
            check(run.result["correct"] and run.result["failed"] == 0,
                  f"{w}: run correct, no list failed")
        first = plain[0].visits[0]
        check(all(run.visits[0] == first for run in plain + traced),
              f"{w}: per-list counts repeat across runs")
        check(all(run.visits[1] == first for run in traced),
              f"{w}: traced passes count what untraced passes count")
        check(traced[0].counters == traced[1].counters != {},
              f"{w}: registry counters repeat across traced runs")
        for name in E2E_COUNTS:
            check(plain[0].metric(name) == plain[1].metric(name),
                  f"{w}: {name} repeats")
        for name in LAYER_COUNTS:
            check(traced[0].metric(name) == traced[1].metric(name),
                  f"{w}: {name} repeats")
        order = plain[0].visit_order()
        check(sorted(other.visit_order()) == sorted(order) and
              other.visit_order() != order,
              f"{w}: seed {SEED + 1} visits the lists in another order")

    print(f"{len(failures)} checks failed" if failures else
          "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
