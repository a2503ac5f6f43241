#!/usr/bin/env python3
"""Builds and runs the dhmm end-to-end benchmark.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the library from ../src) into the directory
named by $CARGO_TARGET_DIR, default .bench_build, relative to the checkout
root; later runs rebuild incrementally. Build output goes to stderr.

Standard output carries "context ..." lines (CPU set, kernel ISA, source
revision, guest steal share over the run), "note ..." lines from the
workload, and as its last line the JSON result
{"correct", "attempted", "failed", "metrics"}. Any failure to build or run
exits non-zero without a result line.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_small", "serve_large", "train_pos", "stream_sessions")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    out = os.path.join(build_dir(), "perfbench")
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "dhmm_perfbench")


def cpu_times():
    """The "cpu*" lines of /proc/stat as {name: [ticks]} ({} if unreadable)."""
    try:
        with open("/proc/stat") as f:
            rows = [line.split() for line in f if line.startswith("cpu")]
        return {r[0]: [int(x) for x in r[1:]] for r in rows}
    except (OSError, ValueError):
        return {}


def steal_share(before, after, name):
    """Steal ticks / all ticks of one /proc/stat cpu line between two reads."""
    if name not in before or name not in after or len(before[name]) < 8:
        return None
    delta = [b - a for a, b in zip(before[name], after[name])]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else None


def revision():
    """The git commit when run from a clone, else a hash of src/ and perfbench/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                               capture_output=True, text=True, check=True)
            return "git:" + r.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    work_dir = os.path.join(build_dir(), "run", args.workload)
    before = cpu_times()
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    after = cpu_times()
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(proc.stdout)
        print("perfbench: malformed result line", file=sys.stderr)
        return 1

    print("context revision %s" % revision())
    # The whole machine's steal share, and that of the CPU the benchmark
    # pinned itself to: a vCPU accrues steal only while it has work, so the
    # second is the share of the run's own time the host took away.
    share = steal_share(before, after, "cpu")
    if share is not None:
        print("context guest_steal_share %.4f" % share)
    pinned = [l.split()[-1] for l in lines if l.startswith("context cpu_set ")]
    share = steal_share(before, after, "cpu" + pinned[0]) if pinned else None
    if share is not None:
        print("context pinned_cpu_steal_share %.4f" % share)
    for line in lines[:-1]:
        print(line)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
