#!/usr/bin/env python3
"""Build and run the cohls benchmark from a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--node-budget N] [--replicate N]

Builds perfbench/main.exe with dune into $CARGO_TARGET_DIR (default
.bench_build, relative to the checkout), runs it with the given arguments
plus provenance (nproc, the git commit when there is one, a digest of the
sources), and checks that the result's metric names are the ones
BENCHMARK.json lists for the run's mode; a workload BENCHMARK.json does not
list may report more. Stdout ends with the result object, its metric
values turned from main.exe's exact decimal strings into JSON numbers.
Exits non-zero without printing a result when the checkout has no sources,
the build fails, or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["ilp-kinase", "ilp-gene-expr", "scale-layering", "paper-recovery"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Digest of the library and benchmark sources: provenance that holds
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "dune-project")]
    for top in ("lib", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(dirpath, f) for f in files]
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unavailable"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def main():
    ap = argparse.ArgumentParser(description="Build and run the cohls benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--node-budget", type=int)
    ap.add_argument("--replicate", type=int)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"{needed} not found: run from a source checkout")
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "--build-dir", build_dir, "./perfbench/main.exe"],
        cwd=ROOT, env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        die("build failed")

    cmd = [os.path.join(build_dir, "default", "perfbench", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(len(os.sched_getaffinity(0))),
           "--commit", git_commit(), "--source-digest", source_digest()]
    for name in ("node_budget", "replicate"):
        value = getattr(args, name)
        if value is not None:
            cmd += ["--" + name.replace("_", "-"), str(value)]
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)

    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        names = {}  # workload -> its metric names
        for name, entry in result["metrics"].items():
            # main.exe writes each value as its exact decimal string
            entry["value"] = float(entry["value"])
            workload, metric = name.split("/", 1) if "/" in name else (args.workload, name)
            names.setdefault(workload, set()).add(metric)
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        sys.stderr.write(run.stdout)
        die(f"no result line (exit code {run.returncode})")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {w["name"] for w in spec["workloads"]}
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for workload, got in sorted(names.items()):
        if expected - got or (workload in listed and got - expected):
            sys.stderr.write(run.stdout)
            die(f"{workload}: metrics differ from BENCHMARK.json: missing "
                f"{sorted(expected - got)}, extra {sorted(got - expected)}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result, separators=(",", ":")))
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
