#!/usr/bin/env python3
"""Serving benchmark for lrm-server: build, record the environment, run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-panels --seed 1 --seconds 30 --trace 0

Builds the benchmark binary from source (cargo, offline, into
$CARGO_TARGET_DIR, default .bench_build), prints one JSON line describing
the machine and the source, then runs the binary. The binary prints a
JSON record of the run and, as the last line, the result object
(`correct`, `attempted`, `failed`, `metrics`). The exit code is the
binary's; a failed build exits 2 without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["grid-panels", "panel-refresh", "c10k-gaussian"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175

DRIFT_NOTE = (
    "Compare interleaved runs only. End-to-end timings are wall clock with "
    "hypervisor steal taken out, but on the 2-core reference box the wall "
    "time of the same code drifted ~25% between sessions: numbers from "
    "different sessions or machines are never a pair."
)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        return None
    return os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "lrm-perfbench")


def command_output(cmd, env=None):
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def filesystem_of(path):
    """The type of the filesystem `path` lives on, from the mount table."""
    path = os.path.realpath(path)
    best, fstype = "", None
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    skip = {"target", ".bench_build", ".bench_state", ".git"}
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        start = os.path.join(ROOT, top)
        paths = [start] if os.path.isfile(start) else []
        for dirpath, dirnames, filenames in os.walk(start):
            dirnames[:] = sorted(d for d in dirnames if d not in skip)
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def environment(state_dir):
    # Stop git at the checkout root: a checkout that is not a repository
    # must not report the commit of some enclosing one.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"], env=git_env),
        "source_sha256": source_digest(),
        "state_dir_fs": filesystem_of(os.path.dirname(state_dir)),
        "note": DRIFT_NOTE,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    state_root = os.path.join(ROOT, ".bench_state")
    state = os.path.join(state_root, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(state_root, exist_ok=True)
    try:
        print(json.dumps({"environment": environment(state)}), flush=True)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--state", state]
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
            return 1
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
        return done.returncode
    finally:
        shutil.rmtree(state, ignore_errors=True)
        try:
            os.rmdir(state_root)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
