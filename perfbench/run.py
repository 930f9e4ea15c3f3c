#!/usr/bin/env python3
"""Run one workload of the Coconut wall-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the program and the
benchmark from source with sbt (the benchmark's own build in this directory
depends on the repository's build, unchanged) and records the classpath;
later runs reuse it while the sources are unchanged. A run is one JVM, or
for the local workloads several in turn (FORKS), with fixed settings
(JVM_FLAGS, CORES), each running a fixed number of rounds (ROUNDS). The
last line of standard output is the result as JSON; each JVM's result is
checked against BENCHMARK.json before it is used.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
WORK = os.path.join(HERE, ".work")
WORKLOADS = ["local-query", "local-update", "spark-query", "local-paper-sax"]
# Cores given to Spark (local[CORES]) and seen by the JVM.
CORES = min(4, os.cpu_count() or 1)
# A fixed, pre-touched heap on transparent huge pages, so that page faults
# and heap resizing do not land in timed calls. The serial collector copies
# objects in the same order on every run; with parallel collector threads the
# heap layout, and with it the query times, varied from run to run.
JVM_FLAGS = [
    "-Xms3g", "-Xmx3g", "-Xmn1g", "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages",
    "-XX:+UseSerialGC", f"-XX:ActiveProcessorCount={CORES}",
]
# Untraced local runs are split over several JVMs and report the median over
# them of each metric: the same calls run up to 1.5x slower in one JVM than
# in another (code the JIT compiled, heap layout), and more rounds in one JVM
# do not average that out. A traced run is one JVM doing the work of all.
FORKS = {"local-query": 3, "local-update": 2, "local-paper-sax": 1, "spark-query": 1}
# Whole rounds per JVM, so that every run takes the same samples. A round of
# the first three takes 5-20 s on 4 cores, longer than --seconds gives each
# JVM. 0 repeats rounds until the JVM's share of --seconds has passed: a
# local-paper-sax round fails every call and takes a few milliseconds.
ROUNDS = {"local-query": 1, "local-update": 1, "local-paper-sax": 0, "spark-query": 1}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# What the build reads: a change to any of these rebuilds.
SOURCES = ["build.sbt", "project/build.properties", "src/main",
           "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src/main"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.isfile(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    return env


def classpath():
    """Builds when the sources changed since the last build; returns the classpath."""
    for rel in ("build.sbt", "src/main/scala/repro"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"{rel} not found under {ROOT}: run from the root of a full checkout")
    digest = source_digest()
    stamp, cp_file = os.path.join(BUILD, "digest"), os.path.join(BUILD, "classpath")
    if os.path.isfile(stamp) and os.path.isfile(cp_file):
        with open(stamp) as fh:
            if fh.read() == digest:
                with open(cp_file) as cf:
                    return cf.read()
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
        cwd=HERE, env=sbt_env(), stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=BUILD_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip() and not l.startswith("[")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"build failed (sbt exit {proc.returncode})")
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp, "w") as fh:
        fh.write(digest)
    return cp


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The result line has exactly the keys and metrics BENCHMARK.json names."""
    res = json.loads(line)
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"result keys {sorted(res)}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1 or not isinstance(res["failed"], int):
        raise ValueError("attempted/failed must be whole numbers, attempted at least 1")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")


def run_jvm(cp, a, rounds, seconds, deadline):
    """One JVM; returns its output lines, the last being its result."""
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java"] + JVM_FLAGS + [f"-Djava.io.tmpdir={tmp}", "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--rounds", str(rounds), "--seconds", repr(seconds),
           "--trace", str(a.trace), "--work", WORK, "--cores", str(CORES)])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode}")
    return lines


def combine(results):
    """Operations add up over the JVMs; each metric is the median over them."""
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": statistics.median(r["metrics"][k]["value"] for r in results),
                        "unit": v["unit"]} for k, v in results[0]["metrics"].items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    cp = classpath()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    forks, rounds = FORKS[a.workload], ROUNDS[a.workload]
    if a.trace:
        forks, rounds = 1, forks * rounds
    results = []
    for _ in range(forks):
        lines = run_jvm(cp, a, rounds, a.seconds / forks, deadline)
        print("\n".join(lines[:-1]))
        try:
            check_result(lines[-1], a.trace)
        except (ValueError, KeyError, TypeError) as e:
            print(lines[-1], file=sys.stderr)
            fail(f"bad result line: {e}")
        results.append(json.loads(lines[-1]))
    print(json.dumps(combine(results)), flush=True)


if __name__ == "__main__":
    main()
