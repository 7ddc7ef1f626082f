#!/usr/bin/env python3
"""Build and run the udma benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <table1|ring_rdma|cluster_mesh> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `udma-perfbench` package (perfbench/Cargo.toml) against the
repository's crates, runs it, and passes its output through. The last line
of standard output is the JSON result; on any failure nothing is printed
there and the exit code is not 0. See perfbench/README.md.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# The benchmark builds the repository's own crates; without them there is
# nothing to measure.
REQUIRED = ["Cargo.toml", "Cargo.lock", os.path.join("crates", "core", "Cargo.toml")]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("table1", "ring_rdma", "cluster_mesh")


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def parse(argv):
    args = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in args:
            fail(f"unknown flag {flag}")
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value")
        args[flag] = value
    if args["--workload"] not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    for flag in ("--seed", "--seconds", "--trace"):
        if not args[flag].isdigit():
            fail(f"{flag} must be a whole number")
    return args


def source_digest():
    """SHA-256 over the sources the benchmark builds: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = []
    for top in ("crates", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in filenames if f.endswith((".rs", ".toml"))]
    paths += [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    args = parse(sys.argv[1:])
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail(f"not a udma checkout: missing {', '.join(missing)}")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("cargo build failed")

    # For the benchmark process only: keep freed heap memory in the
    # process instead of returning it to the OS between rounds. On a
    # virtual machine every fresh page costs a host-level fault, which made
    # round times swing by up to 2x from run to run; with these settings a
    # round reuses the heap the warm-up round grew. The program allocates
    # and frees exactly as before; only the trip to the OS goes.
    env.update({
        "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
        "MALLOC_TRIM_THRESHOLD_": str(16 << 30),
        "MALLOC_TOP_PAD_": str(64 << 20),
    })
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
    env["PERFBENCH_RUSTC"] = rustc.stdout.strip() or "unknown"
    env["PERFBENCH_COMMIT"] = f"{commit()} src:{source_digest()}"

    binary = os.path.join(target, "release", "udma-perfbench")
    cmd = [binary]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        cmd += [flag, args[flag]]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark failed (exit code {run.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the benchmark's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["correct"] is not True:
        fail("the benchmark's result is malformed or not correct")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
