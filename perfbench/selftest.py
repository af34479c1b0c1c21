#!/usr/bin/env python3
"""Smoke-sized self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload, on smoke-sized inputs, it checks that:
  * every end-to-end (timed run) and per-layer (traced run) metric named in
    BENCHMARK.json is present, finite and carries its unit, and the run
    passes its output checks against the stored reference digest;
  * the timed run's min(nproc, 4)-worker passes reproduce the digest of its
    1-worker passes (each pass is checked against the first 1-worker pass,
    so any disagreement would fail the run above);
  * a deliberately corrupted reference digest raises ops_failed_frac above
    zero and marks the run incorrect.
It also checks that the command line rejects unknown flags and malformed
numbers with a non-zero exit and no result line. Exits non-zero on any
failure.
"""

import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SCRATCH = os.path.join(run.BUILD_DIR, "selftest")
FAILURES = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def invoke(binary, args):
    out = subprocess.run([binary] + args, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.splitlines()
    return out.returncode, lines, out.stderr


def parse(lines):
    meta = json.loads(lines[-2])["perfbench_meta"]
    result = json.loads(lines[-1])
    return meta, result


def check_metrics(result, specs, label):
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{label}: result has exactly correct/attempted/failed/metrics")
    metrics = result["metrics"]
    expect(sorted(metrics) == sorted(s["name"] for s in specs),
           f"{label}: exactly the {len(specs)} metrics of BENCHMARK.json")
    for spec in specs:
        m = metrics.get(spec["name"])
        ok = (m is not None and isinstance(m.get("value"), (int, float))
              and math.isfinite(m["value"]) and m.get("unit") == spec["unit"])
        expect(ok, f"{label}: {spec['name']} finite, unit {spec['unit']}")


def main():
    binary = run.build()
    if binary is None:
        print("selftest: build failed", file=sys.stderr)
        return 1
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.makedirs(SCRATCH, exist_ok=True)
    common = ["--seed", "1", "--seconds", "1", "--smoke"]

    for workload in run.WORKLOADS:
        base = ["--workload", workload] + common

        rc, lines, _ = invoke(binary, base + ["--trace", "0", "--reference",
                                              run.REFERENCE])
        meta, result = parse(lines)
        expect(rc == 0 and result["failed"] == 0 and result["correct"],
               f"{workload}: timed run passes its output checks")
        expect(meta["reference_digest"] == meta["pass_digest"],
               f"{workload}: stored reference digest is the pass digest")
        par = min(meta["nproc"], 4)
        expect(meta["workers_serial"] == 1 and meta["workers_par"] == par
               and meta["passes_serial"] >= 1 and meta["passes_par"] >= 1
               and result["failed"] == 0,
               f"{workload}: 1-worker and {par}-worker passes agree")
        check_metrics(result, bench["end_to_end"], f"{workload} timed")
        digest = meta["pass_digest"]

        rc, lines, _ = invoke(binary, base + ["--trace", "1", "--reference",
                                              run.REFERENCE])
        meta, result = parse(lines)
        expect(rc == 0 and result["failed"] == 0,
               f"{workload}: traced run passes its checks (audit ledger armed)")
        check_metrics(result, bench["per_layer"], f"{workload} traced")

        corrupted = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        ref = os.path.join(SCRATCH, f"corrupted_{workload}.txt")
        with open(ref, "w") as f:
            f.write(f"{workload} smoke 1 {corrupted}\n")
        rc, lines, _ = invoke(binary, base + ["--trace", "0", "--reference",
                                              ref])
        meta, result = parse(lines)
        expect(rc == 0 and meta["ops_failed_frac"] > 0
               and result["failed"] > 0 and not result["correct"],
               f"{workload}: corrupted reference digest raises "
               f"ops_failed_frac ({meta['ops_failed_frac']:.3g})")

    bad_args = [
        ["--workload", "nope"],
        ["--workload", "spec_paper", "--seed", "abc"],
        ["--workload", "spec_paper", "--seed", "-1"],
        ["--workload", "spec_paper", "--workers", "2"],
        ["--workload", "spec_paper", "--seconds", "0"],
        ["--workload", "spec_paper", "--trace", "2"],
        ["--workload", "spec_paper", "--bogus", "1"],
    ]
    for args in bad_args:
        for label, cmd in (("perfbench", [binary]),
                           ("run.py", [sys.executable, "perfbench/run.py"])):
            out = subprocess.run(cmd + args + ["--smoke"], capture_output=True,
                                 text=True, timeout=600)
            printed = any(l.startswith('{"correct"')
                          for l in out.stdout.splitlines())
            expect(out.returncode != 0 and not printed,
                   f"{label} rejects {' '.join(args)}")

    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
