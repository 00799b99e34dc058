#!/usr/bin/env python3
"""Build and run the DLR benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <ss512-device|toy-serve|toy-rotate> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml, release, offline) into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), prints a
host fingerprint line, then runs the benchmark binary. The binary's last
stdout line is the result JSON: {"correct", "attempted", "failed",
"metrics"}. With --trace 1 the span trace is written to
<target>/perfbench-trace-<workload>-<seed>.jsonl. The exit code is nonzero
if the build fails, a check fails or the run overruns its time limit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("ss512-device", "toy-serve", "toy-rotate")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cpu_info():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return model, {name: name in flags for name in ("sha_ni", "adx", "bmi2")}


def command_output(args):
    try:
        out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    without git history."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "third_party", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.suffix in (".rs", ".toml"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def host_fingerprint():
    model, flags = cpu_info()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cpu_flags": flags,
        "rustc": command_output(["rustc", "--version"]),
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    manifest = BENCH_DIR / "Cargo.toml"
    if not (ROOT / "crates").is_dir():
        fail(f"no repository crates next to {BENCH_DIR}; nothing to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    # Build output goes to stderr: stdout's last line must be the result.
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    host = host_fingerprint()
    print("host: " + json.dumps(host), flush=True)
    env["PERFBENCH_HOST"] = json.dumps(host)
    cmd = [
        str(target / "release" / "dlr-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", str(target / "perfbench-work"),
    ]
    if args.trace == "1":
        cmd += ["--trace-out", str(target / f"perfbench-trace-{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("the run printed no result line")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
