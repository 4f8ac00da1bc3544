#!/usr/bin/env python3
"""Line coverage of src/ from a gcov-instrumented build.

    cmake --preset coverage
    cmake --build --preset coverage -j
    ctest --test-dir build-coverage -j4
    python3 tools/coverage.py [BUILD_DIR] [--check]

Runs `gcov -j` over the .gcda files the tests left next to the src/
objects in BUILD_DIR (default build-coverage) and prints the line
coverage of each src/ directory's .cc files, the total, and the
functions defined in those files that no test executed. Headers are
not counted: their inline functions are compiled into many objects.

--check exits 1 when the total falls below FLOOR_PCT. CI runs it after
ctest; raise the floor when a change adds coverage, and never lower it
to let a change pass.
"""
import argparse
import collections
import gzip
import json
import os
import subprocess
import sys
import tempfile

# src/ .cc line coverage of the tier-1 ctest suite, rounded down to
# 0.5 pp: 9668 of 10732 lines (90.1 %) with gcc 12, Debug build.
FLOOR_PCT = 90.0


def source_dir(build_dir):
    """The source tree BUILD_DIR was configured from."""
    key = "CMAKE_HOME_DIRECTORY:INTERNAL="
    with open(os.path.join(build_dir, "CMakeCache.txt")) as fh:
        for line in fh:
            if line.startswith(key):
                return os.path.realpath(line[len(key):].strip())
    sys.exit(f"{build_dir}/CMakeCache.txt names no source directory")


def gcda_files(build_dir):
    """The .gcda files under BUILD_DIR/src, grouped by object dir."""
    groups = collections.defaultdict(list)
    for root, _, files in os.walk(os.path.join(build_dir, "src")):
        for f in files:
            if f.endswith(".gcda"):
                groups[root].append(os.path.join(root, f))
    return groups


def gcov_reports(build_dir):
    """One parsed `gcov -j` report per .gcda file."""
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        for objdir, files in sorted(gcda_files(build_dir).items()):
            subprocess.run(
                ["gcov", "-j", "-o", os.path.abspath(objdir)]
                + [os.path.abspath(f) for f in files],
                cwd=tmp, check=True, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            for name in sorted(os.listdir(tmp)):
                path = os.path.join(tmp, name)
                if name.endswith(".gcov.json.gz"):
                    with gzip.open(path, "rt") as fh:
                        reports.append(json.load(fh))
                os.remove(path)
    return reports


def collect(reports, src_dir):
    """Per-file {line: count} and per-function counts of src/*.cc."""
    lines = collections.defaultdict(dict)
    funcs = {}
    for rep in reports:
        cwd = rep.get("current_working_directory", "")
        for f in rep["files"]:
            path = os.path.normpath(os.path.join(cwd, f["file"]))
            if not path.startswith(src_dir + os.sep) or \
                    not path.endswith(".cc"):
                continue
            rel = os.path.relpath(path, src_dir)
            for ln in f["lines"]:
                n = ln["line_number"]
                lines[rel][n] = lines[rel].get(n, 0) + ln["count"]
            # Constructor and destructor variants (complete, base,
            # deleting) share a demangled name: count them as one.
            for fn in f["functions"]:
                key = (rel, fn["start_line"],
                       fn.get("demangled_name", fn["name"]))
                funcs[key] = funcs.get(key, 0) + fn["execution_count"]
    return lines, funcs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("build_dir", nargs="?", default="build-coverage")
    ap.add_argument("--check", action="store_true",
                    help=f"fail below the {FLOOR_PCT} %% floor")
    args = ap.parse_args()
    src_dir = os.path.join(source_dir(args.build_dir), "src")

    reports = gcov_reports(args.build_dir)
    if not reports:
        sys.exit(f"no .gcda files under {args.build_dir}/src: "
                 "build the coverage preset and run ctest first")
    lines, funcs = collect(reports, src_dir)

    per_dir = collections.defaultdict(lambda: [0, 0])
    for rel, counts in lines.items():
        d = per_dir[os.path.dirname(rel)]
        d[0] += sum(1 for c in counts.values() if c > 0)
        d[1] += len(counts)
    hit = sum(d[0] for d in per_dir.values())
    total = sum(d[1] for d in per_dir.values())
    print(f"{'src/ directory':<16} {'lines':>7} {'hit':>7} {'cover':>7}")
    for name, (h, t) in sorted(per_dir.items()):
        print(f"{'src/' + name:<16} {t:>7} {h:>7} {100.0 * h / t:>6.1f}%")
    pct = 100.0 * hit / total if total else 0.0
    print(f"{'total':<16} {total:>7} {hit:>7} {pct:>6.1f}%")

    zero = sorted(key for key, count in funcs.items() if count == 0)
    print(f"\n{len(zero)} functions with zero executions:")
    for rel, line, name in zero:
        print(f"  src/{rel}:{line}  {name}")

    if args.check and pct < FLOOR_PCT:
        print(f"\nFAIL: src/ line coverage {pct:.1f}% is below the "
              f"{FLOOR_PCT}% floor", file=sys.stderr)
        return 1
    if args.check:
        print(f"\nok: src/ line coverage {pct:.1f}% >= {FLOOR_PCT}% floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
