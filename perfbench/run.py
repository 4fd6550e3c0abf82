#!/usr/bin/env python3
"""Runs one workload of the Graphene reproduction's benchmark.

    python3 perfbench/run.py --workload fleet|hammer|spec-mix --seed N \
        --seconds S --trace 0|1

Run from the repository root. The script builds the `perfbench` crate with
cargo (offline, release, into $CARGO_TARGET_DIR or `.bench_build`), then
starts the benchmark's phases as separate processes, so that each phase's
peak resident memory is its own:

* `setup`, three times: generates the input from the seed and builds the
  system; `setup_s` and `setup_peak_rss_mb` are the medians;
* `run` (--trace 0): end-to-end passes for --seconds, or
  `trace` (--trace 1): the per-layer legs for --seconds.

It prints each metric with its unit, a provenance line, and as its last
line one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Every result is also appended to `.bench_work/history.jsonl`; a later run
of the same code, workload and seed must reproduce its simulated digest.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
HISTORY = WORK / "history.jsonl"
SETUPS = 3
# Whole-run budget: the benchmark must finish within 180 s after the build.
DEADLINE_S = 170.0
# Directories whose sources make up the program the benchmark measures.
SOURCE_DIRS = ("crates", "vendor", "perfbench")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary and returns its path, or None."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        return None
    binary = (target if target.is_absolute() else ROOT / target) / "release" / "perfbench"
    return binary if binary.is_file() else None


def phase(binary, args, deadline):
    """Runs one phase; returns its JSON report, or None on failure."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        log(f"no time left for phase {args[0]}")
        return None
    try:
        done = subprocess.run([str(binary), *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        log(f"phase {' '.join(args)} timed out")
        return None
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"phase {' '.join(args)} exited with {done.returncode}")
        return None
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the sources the benchmark builds: identifies the code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml"]
    for d in SOURCE_DIRS:
        files += [p for p in (ROOT / d).rglob("*")
                  if p.is_file() and p.suffix in (".rs", ".toml", ".py")
                  and "target" not in p.relative_to(ROOT).parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, setups):
    first = setups[0] if setups else {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        "git_sha": command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "source_digest": source_digest(),
        "input": {k: first[k] for k in ("input_accesses", "input_file_bytes", "input_digest",
                                        "input_bits_per_access", "input_resident_mb") if k in first},
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def history_matches(record):
    """Earlier results of the same code, workload, seed and input must carry
    the same simulated digest. Returns (compared, mismatches)."""
    if not HISTORY.is_file():
        return 0, []
    compared, mismatches = 0, []
    key = ("workload", "seed", "source_digest")
    for line in HISTORY.read_text().splitlines():
        try:
            old = json.loads(line)
        except json.JSONDecodeError:
            continue
        prov, mine = old.get("provenance", {}), record["provenance"]
        if all(prov.get(k) == mine[k] for k in key) and prov.get("input") == mine["input"] \
                and old.get("sim_digest") and record.get("sim_digest"):
            compared += 1
            if old["sim_digest"] != record["sim_digest"]:
                mismatches.append(f"digest differs from the run of {prov.get('time')}")
    return compared, mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    if binary is None:
        log("building the benchmark failed")
        return 1
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--dir", str(work)]
        setups = [phase(binary, ["setup", *common, "--seed", str(args.seed)], deadline)
                  for _ in range(SETUPS)]
        if any(s is None for s in setups):
            return 1
        seconds = ["--seconds", str(args.seconds)]
        if args.trace:
            main_report = phase(binary, ["trace", *common, *seconds], deadline)
            probes = []
            if args.workload != "fleet":
                probes = [phase(binary, ["run", *common, "--seconds", "0", "--oracle", state],
                                deadline) for state in ("on", "off")]
            if main_report is None or None in probes:
                return 1
        else:
            main_report = phase(binary, ["run", *common, *seconds], deadline)
            probes = []
            if main_report is None:
                return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in [main_report, *probes])
    failures = [f for r in [main_report, *probes] for f in r["failures"]]
    digests = {s["input_digest"] for s in setups}
    attempted += 1
    if len(digests) != 1:
        failures.append(f"one seed generated different inputs: {sorted(digests)}")

    values = dict(main_report.get("metrics", main_report))
    med = lambda key: statistics.median(s.get(key, 0.0) for s in setups)
    values["setup_s"] = med("setup_s")
    values["setup_peak_rss_mb"] = med("setup_peak_rss_mb")
    values["workloads.generate_ns_per_access"] = med("generate_ns_per_access")
    values["sim.synth_ns_per_record"] = med("synth_ns_per_record")
    values["dram.oracle_rss_mb"] = probes[0]["peak_rss_mb"] - probes[1]["peak_rss_mb"] if probes else 0.0

    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        attempted += 1
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            failures.append(f"metric {m['name']} missing or not finite: {v}")
            v = 0.0
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    record = {"provenance": provenance(args, setups), "sim_digest": main_report.get("sim_digest"),
              "metrics": metrics, "attempted": attempted, "failures": failures}
    compared, mismatches = history_matches(record)
    attempted += compared
    failures += mismatches
    record.update(attempted=attempted, failures=failures)
    WORK.mkdir(exist_ok=True)
    with HISTORY.open("a") as f:
        f.write(json.dumps(record) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(record["provenance"]))
    print(f"sim_digest {record['sim_digest']}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    for f in failures:
        print(f"FAILED: {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
