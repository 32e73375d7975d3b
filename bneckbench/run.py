#!/usr/bin/env python3
"""The repository benchmark: builds, runs, checks and reports one workload.

Builds the bneckbench binary, runs one workload, checks its outputs and
prints every metric by name with its unit:

    python3 bneckbench/run.py --workload churn_lan --seed 1 --seconds 20 --trace 0

Workloads: churn_lan, daemon_loopback, verify_small (see README.md).
With --trace 0 the last stdout line carries the end-to-end metrics of an
untraced run; with --trace 1 it carries the per-layer metrics of a run
split into an untraced and a traced half, including the tracing
overhead.  Lines before it are a human-readable report, and the full
report (provenance, raw samples, tags) is written under
.bench_build/results/.  Exit status 0 means every operation's output
was checked and correct.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY_TIMEOUT_S = 170


def log(msg):
    print(f"bneckbench: {msg}", file=sys.stderr, flush=True)


def effective_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the binary; returns its path."""
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target", "bneckbench",
                  "-j", str(min(4, effective_cpus()))])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                tail = logfile.read_text(errors="replace").splitlines()[-15:]
                log("build failed:\n" + "\n".join(tail))
                sys.exit(2)
    return CMAKE_DIR / "bneckbench"


def source_digest():
    """SHA-256 over the sources the binary is built from, so a result
    names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in (ROOT / "src", HERE):
        files += [p for p in d.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(raw, args):
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "compiler": raw["build"]["compiler"],
        "build_type": raw["build"]["build_type"],
        "lto": raw["build"]["lto"],
        "nproc": os.cpu_count(),
        "effective_cpus": effective_cpus(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unix_time": int(time.time()),
    }


def print_table(rows, header):
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=report.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report.check_spec(spec)
    binary = build()

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(results / f"{stem}.spans.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"bneckbench binary did not finish within {BINARY_TIMEOUT_S} s")
        sys.exit(1)
    if proc.returncode != 0 or not proc.stdout.strip():
        log(f"bneckbench binary exited with status {proc.returncode}")
        sys.exit(1)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    e2e_names = [m["name"] for m in spec["end_to_end"]]
    if args.trace:
        declared = spec["per_layer"]
        values = report.per_layer(raw, e2e_names)
    else:
        declared = spec["end_to_end"]
        values = report.end_to_end(raw["untraced"])
    attempted, failed = raw["attempted"], raw["failed"]
    correct = failed == 0
    line = report.result_line(correct, attempted, failed, values, declared)
    report.check_result_line(line, declared)

    prov = provenance(raw, args)
    full = {"provenance": prov, "attempted": attempted, "failed": failed,
            "failed_share": report.failed_share(attempted, failed),
            "failures": raw["failures"], "metrics": values,
            "tags": report.layer_tags(e2e_names) if args.trace else None,
            "raw": raw}
    (results / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")

    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    if args.trace:
        tags = report.layer_tags(e2e_names)
        print_table([[m["name"], fmt(values[m["name"]]), m["unit"], *tags[m["name"]]]
                     for m in declared],
                    ["per-layer metric", "value", "unit", "should move", "workload"])
        print()
        print_table([[n, fmt(values["untraced." + n]), fmt(values["traced." + n]),
                      f"{100 * values['overhead.' + n]:+.1f}%"] for n in e2e_names],
                    ["end-to-end metric", "untraced", "traced", "tracing overhead"])
    else:
        print_table([[m["name"], fmt(values[m["name"]]), m["unit"]] for m in declared],
                    ["end-to-end metric", "value", "unit"])
    print(f"operations: attempted {attempted}, failed {failed} "
          f"(failed share {report.failed_share(attempted, failed):.4f})")
    for f in raw["failures"]:
        print(f"  FAILED: {f}")
    print(line, flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
