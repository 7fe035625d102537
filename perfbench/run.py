#!/usr/bin/env python3
"""Build the scheduling stack from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder|light|certify \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench_driver and the
balance_serviced daemon into .bench_build/ (RelWithDebInfo, the
repository's own flags); later runs rebuild incrementally. Build output
goes to stderr. The driver prints a fingerprint line and, as the last
line of stdout, the result JSON. Ledgers, run records and per-seed
digests land in .bench_build/state/. Responses and certificates are
checked against perfbench/expected_digests.txt; regenerate a line of
it with

    python3 perfbench/run.py --print-digest --workload W --seed N
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
# Everything the two binaries are built from; hashed into the source
# digest printed with every result.
SOURCE_ROOTS = ["CMakeLists.txt", "cmake", "src", "bench", "perfbench"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    h = hashlib.sha256()
    for top in SOURCE_ROOTS:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target",
           "perfbench_driver", "balance_serviced"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ladder", "light", "certify"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--print-digest", action="store_true",
                        help="print the seed's expected_digests.txt line")
    args = parser.parse_args()
    if args.print_digest:
        args.seconds, args.trace = 1, 0  # not used when printing
    elif args.seconds is None or args.trace is None:
        parser.error("--seconds and --trace are required")

    root = os.getcwd()
    for needed in ["CMakeLists.txt", "src", "bench/balance_serviced.cc",
                   "perfbench/CMakeLists.txt"]:
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a source checkout: missing "
                 + needed)

    build_dir = os.path.join(root, BUILD_DIR)
    build(root, build_dir)
    state_dir = os.path.join(build_dir, "state")
    os.makedirs(state_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--daemon", os.path.join(build_dir, "balance", "bench",
                                    "balance_serviced"),
           "--state-dir", state_dir,
           "--digest-file", os.path.join(root, "perfbench",
                                         "expected_digests.txt"),
           "--print-digest", "1" if args.print_digest else "0",
           "--commit", commit(root),
           "--source-digest", source_digest(root)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
