#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/NOTES.md).

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload trace_jobs --seed 1 --seconds 30 --trace 0

Retrain the checked-in models and rewrite their checksums:

    python3 perfbench/run.py --regenerate

The program is built from source under .bench_build/ at the repository root.
Build output goes to stderr. Every model artifact is checked against
perfbench/models/SHA256SUMS before the program may load it.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODELS = os.path.join(HERE, "models")
SUMS = os.path.join(MODELS, "SHA256SUMS")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("trace_jobs", "fleet_stream")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; returns the binary."""
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def verify_models():
    with open(SUMS) as f:
        entries = [line.split() for line in f if line.strip()]
    if not entries:
        raise RuntimeError("no model checksums in " + SUMS)
    for digest, name in entries:
        if sha256(os.path.join(MODELS, name)) != digest:
            raise RuntimeError("model artifact %s does not match its checksum"
                               % name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regenerate", action="store_true",
                    help="retrain the models and rewrite their checksums")
    args = ap.parse_args()
    if not args.regenerate and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if args.regenerate:
        subprocess.run([exe, "regen", MODELS], check=True)
        names = sorted(n for n in os.listdir(MODELS) if n.endswith(".slocart"))
        with open(SUMS, "w") as f:
            for name in names:
                f.write("%s  %s\n" % (sha256(os.path.join(MODELS, name)), name))
        return 0

    verify_models()
    sys.stdout.flush()
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--models", MODELS]
    with subprocess.Popen(cmd) as child:
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
