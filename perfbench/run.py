#!/usr/bin/env python3
"""Build the SLPMT benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ycsb-load --seed 1 --seconds 10 --trace 0

The build lives in .bench_build/perfbench under the repository root and
is reused when up to date; build output goes to standard error. Every
argument is passed to the benchmark binary, whose last line of standard
output is the JSON result. With --trace 1 the spans of the last traced
pass are written to .bench_build/perfbench/trace-<workload>.json.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "slpmt_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no SLPMT sources under", os.path.join(ROOT, "src"),
              file=sys.stderr)
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    # Two compile jobs: the machine is shared, and memory is tight.
    subprocess.run(["cmake", "--build", BUILD, "--target", "slpmt_perfbench",
                    "-j", "2"], stdout=sys.stderr, check=True)


def main():
    args = sys.argv[1:]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed:", err, file=sys.stderr)
        return 2
    if "--trace" in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1" and "--workload" in args:
            w = args.index("--workload")
            if w + 1 < len(args):
                args += ["--trace-out",
                         os.path.join(BUILD, "trace-%s.json" % args[w + 1])]
    sys.stdout.flush()
    return subprocess.run([BINARY, *args]).returncode


if __name__ == "__main__":
    sys.exit(main())
