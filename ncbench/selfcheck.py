"""Self-check of the benchmark at tiny sizes; runs in seconds.

    python3 ncbench/selfcheck.py

Checks that every workload emits exactly the end-to-end metrics (``--trace 0``)
and per-layer metrics (``--trace 1``) that BENCHMARK.json names, each with its
unit; that the correctness gate accepts a matching reference digest and
catches a deliberately wrong one; and that the benchmark refuses to run
without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCRATCH = os.path.join(BENCH_DIR, "out", "selfcheck")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("ncbench", "run.py"), "--scale", "tiny",
           "--seconds", "0.3", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in config["end_to_end"]},
        1: {m["name"]: m["unit"] for m in config["per_layer"]},
    }
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    problems = []

    for wl in (w["name"] for w in config["workloads"]):
        for trace in (0, 1):
            before = len(problems)
            proc, result = bench("--workload", wl, "--trace", str(trace))
            where = f"{wl} --trace {trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"{where}: not correct: {proc.stdout[-2000:]}")
            got = {k: m.get("unit") for k, m in result.get("metrics", {}).items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append(f"{where}: missing {missing}, extra {extra}, "
                                f"wrong unit {wrong}")
            for k, m in result.get("metrics", {}).items():
                if not isinstance(m.get("value"), (int, float)):
                    problems.append(f"{where}: {k} has no numeric value")
            if len(problems) == before:
                print(f"ok   {where}: {len(got)} metrics", flush=True)

    # the gate must accept the right digests and catch a wrong one
    ref = os.path.join(SCRATCH, "reference.json")
    gg = ("--workload", "gg_solve", "--trace", "0", "--reference", ref)
    proc, _ = bench(*gg, "--write-reference")
    if proc.returncode != 0:
        problems.append(f"--write-reference failed: {proc.stderr[-2000:]}")
    else:
        proc, result = bench(*gg)
        if not (result and result["correct"]) or "not checked" in proc.stdout:
            problems.append(f"matching reference rejected: {proc.stdout[-2000:]}")
        with open(ref, encoding="utf-8") as fh:
            data = json.load(fh)
        data["digests"]["tiny"]["gg_solve"]["svrg"] = "0" * 64
        with open(ref, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        proc, result = bench(*gg)
        caught = (result is not None and result["correct"] is False
                  and result["failed"] >= 1
                  and "trace digest mismatch for solver svrg" in proc.stdout)
        if caught:
            print("ok   wrong reference digest caught as a mismatch for svrg")
        else:
            problems.append(f"wrong reference digest not caught: {proc.stdout[-2000:]}")

    # without the package sources the benchmark must fail and print no result
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(BENCH_DIR, os.path.join(bare, "ncbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, result = bench("--workload", "gg_solve", "--trace", "0", cwd=bare)
    if proc.returncode == 0 or result is not None:
        problems.append(f"bare directory: exit {proc.returncode}, result {result}")
    else:
        print(f"ok   bare directory refused with exit {proc.returncode}")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    for p in problems:
        print("FAIL " + p)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
