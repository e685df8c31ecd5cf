#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny scale.

Usage, from the root of a checkout:  python3 perfbench/smoke.py

Checks that
  * every workload, untraced and traced, emits exactly the metrics of
    BENCHMARK.json with their units and passes its correctness gates (at this
    scale the simulated workloads also check that the benchmark's run agrees
    with the program's own runner, and the traced run that tracing leaves the
    simulated figures unchanged);
  * each correctness gate trips on a deliberately corrupted result;
  * a directory holding only BENCHMARK.json and the benchmark fails without
    printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN = [sys.executable, os.path.join(HERE, "run.py")]

# Gates and the corruption that must trip each.
CORRUPTIONS = {
    "counting-fluid": ["count", "placement", "drain"],
    "nexmark-q4": ["output"],
    "spark-wordcount": ["state"],
}


def run(workload, trace, corrupt="", cwd=ROOT, run_cmd=RUN):
    cmd = run_cmd + ["--workload", workload, "--seed", "7", "--seconds", "2",
                     "--trace", str(trace), "--scale", "tiny"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    res = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         timeout=600)
    lines = res.stdout.strip().splitlines()
    return res.returncode, lines, res.stderr


def result(lines):
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    return out


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in CORRUPTIONS:
        for trace in (0, 1):
            code, lines, err = run(w, trace)
            expect(code == 0, f"{w} trace={trace} exits 0")
            if code != 0:
                sys.stderr.write(err[-3000:])
                continue
            out = result(lines)
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(got == want, f"{w} trace={trace} emits every metric with its unit")
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                   f"{w} trace={trace} passes its gates ({out['failed']} of {out['attempted']} failed)")
            if not out["correct"]:
                print("\n".join(l for l in lines if "gate failed" in l))
        for corrupt in CORRUPTIONS[w]:
            code, lines, err = run(w, 0, corrupt)
            ok = code == 0 and not result(lines)["correct"] and result(lines)["failed"] >= 1
            expect(ok, f"{w} gate trips on corrupted {corrupt}")

    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run("counting-fluid", 0, cwd=bare, run_cmd=spec["command"])
    expect(code != 0 and not any(l.startswith("{") for l in lines),
           "a directory with only the benchmark fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("smoke test " + ("passed" if not failures else f"FAILED: {failures}"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
