#!/usr/bin/env python3
"""Repository benchmark: builds the Release benchmark driver from source
and runs one workload (or all of them), each in its own process.

    python3 perfbench/run.py --workload consult_query --seed 1 \\
        --seconds 20 --trace 0

--workload all runs every workload in turn, each in its own process.
With --trace 0 the result carries the end-to-end metrics, with --trace 1
the per-layer metrics. The last line of standard output is the result
JSON: {"correct", "attempted", "failed", "metrics"}. A run record (source
digest, build type, compiler, nproc, seed, flush policy) is written next
to the build under records/. The build goes to $CARGO_TARGET_DIR if set,
else .bench_build, relative to the current directory. See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["consult_query", "update_probe", "persistent_query"]
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no CORAL sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", "3"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def source_identity():
    """Git sha when the tree is a checkout, and always a digest of the
    sources the driver is built from."""
    sha = "none"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(driver, build_dir, workload, seed, seconds, trace):
    """Runs the driver once; echoes its report and returns the result."""
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed nothing")
    result = json.loads(lines[-1])
    record = {}
    for line in lines[:-1]:
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
        else:
            print(f"{workload:17s} {line}")
    want = expected_metrics(trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        raise RuntimeError("driver metrics differ from BENCHMARK.json")
    sha, digest = source_identity()
    record.update({"git_sha": sha, "source_sha256": digest,
                   "result": result, "finished_unix": time.time()})
    records = os.path.join(build_dir, "records")
    os.makedirs(records, exist_ok=True)
    name = f"{workload}-s{seed}-t{1 if trace else 0}.json"
    with open(os.path.join(records, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        driver = build(build_dir)
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = {w: run_workload(driver, build_dir, w, args.seed,
                                   args.seconds, args.trace == 1)
                   for w in names}
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"failed: {e}")
        return 1

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
