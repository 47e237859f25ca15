#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark from source on first use (see
build.py), then runs one JVM that generates the seeded input, warms up and
measures for --seconds (see src/repro/perfbench/Main.scala). The result's
metric names and units are checked against BENCHMARK.json. Exits non-zero,
without a result, when the build or the run fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import build  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "perfbench-work"
RUN_TIMEOUT_S = 170

# Spark 4 on JDK 17 needs these modules opened (spark-submit adds them itself).
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        raise ValueError(f"metrics {got} differ from BENCHMARK.json's {want}")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        classes = build.build()
    except build.BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cp = os.pathsep.join([str(classes)] + [str(j) for j in build.spark_jars()])
    cmd = [build.java(), "-XX:+UseParallelGC", "-Xms3g", "-Xmx3g", "-Xmn256m", "-XX:-UsePerfData", "-XX:+IgnoreUnrecognizedVMOptions", *JVM_OPENS,
           "-Djdk.reflect.useDirectMethodHandle=false",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(WORK)]
    # On SIGTERM, unwind through the finally below so the JVM is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"run failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        sys.stdout.write(out)
        print(f"malformed result: {e}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
