#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload web|hostile|query --seed N \
        --seconds S --trace 0|1 [--scale X] [--corrupt-expected]

Run it from the repository root. The first run configures and builds
perfbench/ (which builds the fcc library from ../src) into the
directory named by CARGO_TARGET_DIR, or .bench_build by default; later
runs only rebuild what changed. Build output goes to stderr, so the
last line of stdout stays the benchmark's JSON result. The result's
metric names and units are checked against BENCHMARK.json at the
repository root. See perfbench/README.md.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def check_names(result, trace):
    """The printed metrics must be exactly BENCHMARK.json's, with its
    units: end_to_end without tracing, per_layer with it."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        sys.exit(f"perfbench: metrics disagree with BENCHMARK.json: "
                 f"missing {missing}, unexpected {extra}, unit {units}")


def main():
    argv = sys.argv[1:]
    if "--trace" not in argv:
        sys.exit("perfbench: --trace 0|1 is required")
    trace = argv[argv.index("--trace") + 1:][:1] == ["1"]
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    proc = subprocess.run([binary, *argv], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0:
        check_names(json.loads(lines[-1]), trace)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
