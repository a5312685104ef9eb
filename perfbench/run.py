#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark package under
`perfbench/` is built in release mode (into `$CARGO_TARGET_DIR`, default
`.bench_build`) against the repo's crates, then run. The last line of stdout
is the result object; the lines before it are a human-readable report.
Results and spans are also saved under `<target dir>/perfbench/`.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys

WORKLOADS = ["warm_read", "stream_ingest", "tenant_churn", "offline_impute"]
RUN_TIMEOUT_S = 170


def host_record(root):
    """Where and how the numbers were measured."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    flags = os.environ.get("RUSTFLAGS", "")
    try:
        with open(os.path.join(root, ".cargo", "config.toml")) as f:
            m = re.search(r"rustflags\s*=\s*\[([^\]]*)\]", f.read())
            if m:
                flags = " ".join(re.findall(r'"([^"]*)"', m.group(1)) + ([flags] if flags else []))
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "rustc": out(["rustc", "-V"]) or "unknown",
        "codegen": (flags + " profile.release: lto=thin codegen-units=1").strip(),
        "git_commit": out(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env["PERFBENCH_HOST"] = json.dumps(host_record(root))
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", os.path.join(target, "perfbench"),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
