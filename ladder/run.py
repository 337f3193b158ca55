#!/usr/bin/env python3
"""Build and run SAM's benchmark, or compare two sets of its results.

Run from the root of the repository:

    python3 ladder/run.py --workload serve-inline --seed 1 --seconds 20 --trace 0
    python3 ladder/run.py --compare old.jsonl new.jsonl

The first form builds the Go program in ladder/ (into .bench_build/, or
$CARGO_TARGET_DIR when set) and runs it with the given arguments; its last
line of standard output is the run's JSON result. Every run also appends a
record to .bench_build/ladder/results.jsonl. The second form reads two such
files and prints, per workload, the median of every metric on each side,
their ratio, and whether the change is better, worse, or worse by more than
the metric's bound in BENCHMARK.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Build the benchmark binary and return its path, or None on failure."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # Keep every file the toolchain writes inside the build directory.
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTMPDIR": tmp,
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "ladder-bin")
    try:
        proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"ladder: build failed: {err}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"ladder: build failed:\n{proc.stdout}", file=sys.stderr)
        return None
    return binary


def run(args):
    binary = build()
    if binary is None:
        return 1
    out = os.path.join(build_dir(), "ladder")
    proc = subprocess.Popen([binary, "-out", out] + args, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"ladder: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1
    try:
        json.loads(lines[-1])
    except ValueError:
        print("ladder: the last line of output is not a JSON result", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


def load(path):
    """Group a results file's metric values by (workload, traced, metric)."""
    groups = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                key = (rec["workload"], rec["trace"], name)
                groups.setdefault(key, ([], m["unit"]))[0].append(m["value"])
    return groups


def directions():
    """Map each metric named in BENCHMARK.json to its better direction and
    its regression bound (None for per-layer metrics)."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: (m["better"], m.get("bound"))
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def compare(old_path, new_path):
    old, new = load(old_path), load(new_path)
    better = directions()
    keys = sorted(set(old) & set(new))
    if not keys:
        print("ladder: the two files share no workload and metric", file=sys.stderr)
        return 1
    workload = None
    for key in keys:
        (ov, unit), (nv, _) = old[key], new[key]
        if key[:2] != workload:
            workload = key[:2]
            kind = "per-layer (traced)" if key[1] else "end-to-end"
            print(f"\n{key[0]} — {kind}: median of {len(ov)} base and {len(nv)} new runs")
            print(f"  {'metric':<28} {'base':>14} {'new':>14} {'new/base':>10}  verdict")
        om, nm = statistics.median(ov), statistics.median(nv)
        ratio = nm / om if om else float("nan")
        verdict = ""
        if om and key[2] in better and nm != om:
            direction, bound = better[key[2]]
            improved = (nm < om) == (direction == "lower")
            verdict = "better" if improved else "worse"
            if not improved and bound is not None and abs(ratio - 1) > bound:
                verdict = "REGRESSION beyond bound"
        ratio_s = f"{ratio:.3f}x" if om else "n/a"
        print(f"  {key[2]:<28} {om:>14.6g} {nm:>14.6g} {ratio_s:>10}  {verdict} ({unit})")
    return 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            print("usage: run.py --compare OLD.jsonl NEW.jsonl", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
