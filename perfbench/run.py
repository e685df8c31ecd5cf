#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|tiny] [--corrupt GATE]

The first call compiles the program (src/main/scala) together with the
benchmark (perfbench/src) into .bench_build (or $CARGO_TARGET_DIR) using the
Scala compiler shipped in the Spark distribution; later calls reuse the build
while the sources are unchanged. The run happens in a fresh JVM whose heap
and Spark core count are fixed here, so results do not depend on sbt or
SPARK_DRIVER_MEM. Informational lines go to stdout first; the last line is
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end_to_end metrics of BENCHMARK.json, with --trace 1 the per_layer ones.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
BENCH_SRC = os.path.join(HERE, "src")

HEAP = "3g"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175

# Spark on JDK 17 needs these module opens.
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spark_jars():
    """Jars of the Spark distribution at $SPARK_HOME, or of the first one
    whose bin/spark-submit is on PATH; it ships the Scala 2.13 compiler."""
    homes = [os.environ.get("SPARK_HOME")]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        submit = os.path.join(d, "spark-submit")
        if os.path.isfile(submit):
            homes.append(os.path.dirname(os.path.dirname(os.path.realpath(submit))))
    for home in filter(None, homes):
        jars = os.path.join(home, "jars")
        if glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
            return jars
    fail("no Spark distribution with a Scala compiler found; set SPARK_HOME to a Spark 4 distribution")


def duckdb_jar():
    """The DuckDB JDBC driver behind repro.Oracle, from the coursier cache sbt uses."""
    cache = os.environ.get("COURSIER_CACHE") or os.path.expanduser("~/.cache/coursier")
    found = sorted(glob.glob(os.path.join(cache, "**", "duckdb_jdbc-*.jar"), recursive=True))
    found = [f for f in found if not f.endswith(("-sources.jar", "-javadoc.jar"))]
    if not found:
        fail(f"DuckDB JDBC jar (org.duckdb:duckdb_jdbc) not found under {cache}")
    return found[-1]


def sources():
    if not os.path.isdir(PROGRAM_SRC):
        fail(f"program sources not found at {PROGRAM_SRC}; run from the root of a checkout")
    files = []
    for top in (PROGRAM_SRC, BENCH_SRC):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def build(build_dir, jars):
    """Compile program and benchmark; returns the classes directory."""
    srcs = sources()
    digest = hashlib.sha256()
    for f in srcs:
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    stamp = digest.hexdigest()
    classes = os.path.join(build_dir, "classes")
    stamp_file = os.path.join(classes, ".sources-sha256")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return classes
    fresh = classes + ".tmp"
    shutil.rmtree(fresh, ignore_errors=True)
    os.makedirs(fresh)
    cmd = ["java", "-Xmx2g", "-Xss8m", "-XX:-UsePerfData", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", fresh, "-cp", os.path.join(jars, "*")] + srcs
    t0 = time.time()
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                         timeout=BUILD_TIMEOUT_S)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        fail("compilation failed", 1)
    with open(os.path.join(fresh, ".sources-sha256"), "w") as fh:
        fh.write(stamp)
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(fresh, classes)
    print(f"info build compiled {len(srcs)} files in {time.time() - t0:.1f} s", flush=True)
    return classes


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_jvm(args, classes, jars, work_dir):
    tmp = os.path.join(work_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cp = os.pathsep.join([classes, os.path.join(jars, "*"), duckdb_jar()])
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           "-XX:-UsePerfData", "-XX:+IgnoreUnrecognizedVMOptions"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
    cmd += ["-cp", cp, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale, "--work-dir", work_dir]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    cmd += ["--launched-ns", str(time.time_ns())]
    # Spark prefers these variables over spark.local.dir; keep its files here.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work_dir, "spark-local"))
    env.pop("SPARK_EXECUTOR_DIRS", None)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True, env=env)
    kill = lambda: os.killpg(proc.pid, signal.SIGKILL)
    watchdog = threading.Timer(RUN_TIMEOUT_S, kill)
    watchdog.start()
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = line[len("RESULT "):]
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
        code = proc.wait()
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    if code != 0 or result is None:
        fail(f"workload {args.workload} exited with code {code}", 1)
    return json.loads(result)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", default="")
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found; run from the root of a checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jars = spark_jars()
    classes = build(build_dir, jars)
    work_dir = os.path.join(build_dir, "run")
    result = run_jvm(args, classes, jars, work_dir)

    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"unexpected {sorted(set(got) - set(want))}, "
             f"units {sorted(k for k in want if k in got and got[k] != want[k])}", 1)
    print(json.dumps(result, separators=(",", ":")), flush=True)


if __name__ == "__main__":
    main()
