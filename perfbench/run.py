#!/usr/bin/env python3
"""The repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload server_hot --seed 1 --seconds 20 --trace 0

builds the runner (`perfbench/Cargo.toml`, into `$CARGO_TARGET_DIR`,
default `.bench_build`), measures one workload for `--seconds` seconds and
prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. Earlier lines carry
the host fingerprint and a human-readable summary.

    python3 perfbench/run.py pin --seeds 0 1 2 --held-out 7919
    python3 perfbench/run.py compare --base a.json ... --head b.json ...

`pin` records the simulated-statistics digests of the given seeds in
`perfbench/digests.json`; `compare` contrasts result files written with
`--out` and refuses when their host fingerprints differ.
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS_JSON = os.path.join(HERE, "digests.json")

# Extra processes started only to time set-up; the measuring process
# makes one more sample.
SETUP_PROBES = 15
# Wall-clock allowance for one runner process beyond its `--seconds`.
RUNNER_SLACK_S = 120
# glibc raises its mmap threshold each time a large block is freed, so how
# much freed memory stays resident depends on the order of frees, and peak
# RSS then differs from seed to seed by more than the program's own
# footprint does. Pinning the threshold at its default returns every large
# block to the kernel on free, so peak RSS tracks peak live memory.
RUNNER_ENV = {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"}

# Reference bands from tests/paper_claims.rs (claim_memcached_savings_shape:
# 8 cores, 120 ms per point): AW core power savings at 80k and 900k QPS.
PAPER_BANDS = "tests/paper_claims.rs bands: >20% at 80k QPS, >3% at 900k QPS (8 cores)"


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the runner from source and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        raise BenchError("no simulator sources next to the benchmark (crates/core missing)")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    if proc.returncode != 0:
        raise BenchError("cargo build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def runner(binary, mode, workload, seed, extra=(), timeout=60):
    """Starts one runner process; returns its JSON and the spawn time."""
    cmd = [binary, mode, "--workload", workload, "--seed", str(seed), *extra]
    env = dict(os.environ, **RUNNER_ENV)
    spawned_ns = time.time_ns()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"runner failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned_ns


def measure(binary, workload, seed, seconds, trace, trace_out=None):
    """Set-up samples and one measuring run of `workload`."""
    setups = []
    for _ in range(SETUP_PROBES):
        out, spawned = runner(binary, "setup", workload, seed)
        setups.append(((out["first_call_unix_ns"] - spawned) / 1e9, out["setup_config_s"]))
    extra = ["--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        extra += ["--trace-out", trace_out]
    out, spawned = runner(binary, "run", workload, seed, extra, timeout=seconds + RUNNER_SLACK_S)
    setups.append(((out["first_call_unix_ns"] - spawned) / 1e9, out["setup_config_s"]))
    return out, setups


def pinned_digests(workload, seed):
    """The digests pinned for (workload, seed), or None if not pinned."""
    if not os.path.exists(DIGESTS_JSON):
        return None
    with open(DIGESTS_JSON) as f:
        pinned = json.load(f)["digests"]
    return pinned.get(workload, {}).get(str(seed))


def check_calls(run, expected):
    """Counts attempted and failed simulate/analyze calls.

    A call fails when its op panicked, it returned a failure artifact, or
    its digest differs from `expected` (the pinned digests of the seed;
    for an unpinned seed, those of the run's first op). The fleet's
    one-worker replay op is checked against the same digests.
    """
    per_op = run["calls_per_op"]
    ops = [op.get("calls") for op in run["ops"]]
    if expected is None:
        first = next((calls for calls in ops if calls), None)
        expected = [c["digest"] for c in first] if first else [None] * per_op
    attempted = failed = 0
    for calls in ops:
        attempted += per_op
        if not calls:
            failed += per_op
            continue
        for i, call in enumerate(calls):
            want = expected[i] if i < len(expected) else None
            if call["error"] is not None or call["digest"] != want:
                failed += 1
    return attempted, failed


def timed_ops(run):
    """The ops of the timed loop (without the fleet's check-only replay)."""
    return [op for op in run["ops"] if not op.get("replay")]


def end_to_end(run, setups):
    """End-to-end metrics of an untraced run.

    Host contention on a shared VM only ever adds time to an op, and it
    comes and goes over seconds to minutes, so the fastest of many
    identical ops is the steadiest estimate of their cost: op time is
    reported as its minimum over the run, event rate as its maximum (see
    RATIONALE.md for the measured spreads).
    """
    ops = [op for op in timed_ops(run) if not op["warmup"] and "events" in op]
    if not ops:
        raise BenchError("no measured op completed")
    return {
        "wall_s": min(op["wall_s"] for op in ops),
        "cpu_s": min(op["cpu_s"] for op in ops),
        "events_per_s": max(op["events"] / op["wall_s"] for op in ops),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(s for s, _ in setups),
    }


def per_layer(run, setups):
    traced = [op for op in timed_ops(run) if op["traced"] and "layers" in op]
    untraced = [op for op in timed_ops(run) if not op["traced"] and not op["warmup"]]
    if not traced or not untraced:
        raise BenchError("a traced run needs at least one traced and one untraced op")
    names = traced[0]["layers"].keys()
    metrics = {name: statistics.median(op["layers"][name] for op in traced) for name in names}
    metrics["setup.config_s"] = statistics.median(c for _, c in setups)
    metrics["trace.overhead_s"] = (min(op["wall_s"] for op in traced)
                                   - min(op["wall_s"] for op in untraced))
    return metrics


def result(run, setups, trace, bench):
    """The result object (`correct`, `attempted`, `failed`, `metrics`) of one run."""
    attempted, failed = check_calls(run, pinned_digests(run["workload"], run["seed"]))
    values = per_layer(run, setups) if trace else end_to_end(run, setups)
    specs = bench["per_layer" if trace else "end_to_end"]
    if set(values) != {m["name"] for m in specs}:
        missing = sorted({m["name"] for m in specs} - set(values))
        extra = sorted(set(values) - {m["name"] for m in specs})
        raise BenchError(f"metric set differs from BENCHMARK.json: missing {missing}, "
                         f"extra {extra}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def read_first(path, prefix):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def command_output(cmd):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def tree_sha256(patterns):
    h = hashlib.sha256()
    for path in sorted({p for pat in patterns for p in glob.glob(os.path.join(ROOT, pat),
                                                                 recursive=True)}):
        if os.path.isfile(path) and not os.path.islink(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


# Fingerprint fields two results must share before they are compared.
HOST_KEYS = ("cpu_model", "nproc", "rustc", "jobs", "bench_sha256")


def fingerprint(jobs):
    return {
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "-V"]),
        "jobs": jobs,
        # The code under test: its git sha where the tree is a checkout,
        # and always a digest of the sources.
        "git_sha": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": tree_sha256(["Cargo.toml", "crates/**/*.rs", "crates/**/Cargo.toml"]),
        "bench_sha256": tree_sha256(["BENCHMARK.json", "perfbench/*.py", "perfbench/*.json",
                                     "perfbench/Cargo.*", "perfbench/src/**/*.rs"]),
    }


def summary(run, res, pinned):
    lines = [f"{run['workload']} seed {run['seed']}: {res['attempted']} calls, "
             f"{res['failed']} failed (failed_share {res['failed'] / res['attempted']:.4f}); "
             f"digests {'pinned' if pinned else 'self-consistent only (seed not pinned)'}"]
    if any(op.get("replay") for op in run["ops"]):
        lines.append(f"fleet digests at 1 and {run['jobs']} workers are checked against each other")
    if run.get("savings"):
        s = run["savings"]
        lines.append(f"simulated AW vs Baseline: core power savings {s['power_pct']:.2f}%, "
                     f"p99 {s['p99_pct']:+.2f}% ({PAPER_BANDS}). The model is not validated "
                     "against hardware; no error figure is given.")
    for name, m in res["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


def cmd_run(args):
    bench = load_benchmark()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        raise BenchError(f"unknown workload '{args.workload}'")
    binary = build()
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        trace_out = os.path.join(HERE, "out", f"trace_{args.workload}_seed{args.seed}.json")
    run, setups = measure(binary, args.workload, args.seed, args.seconds, args.trace, trace_out)
    res = result(run, setups, args.trace, bench)
    fp = fingerprint(run["jobs"])
    pinned = pinned_digests(args.workload, args.seed) is not None
    log(summary(run, res, pinned))
    print(json.dumps({"fingerprint": fp}))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"fingerprint": fp, "workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "result": res}, f, indent=1)
    print(json.dumps(res))


def cmd_pin(args):
    """Pins the digests of every workload for the given seeds."""
    binary = build()
    pinned = {"pinned_seeds": sorted(set(args.seeds)),
              "held_out_seeds": sorted(set(args.held_out)), "digests": {}}
    for w in load_benchmark()["workloads"]:
        for seed in pinned["pinned_seeds"] + pinned["held_out_seeds"]:
            run, _ = runner(binary, "run", w["name"], seed,
                            ["--seconds", "0.001", "--trace", "0"],
                            timeout=RUNNER_SLACK_S)
            attempted, failed = check_calls(run, None)
            if failed:
                raise BenchError(f"{w['name']} seed {seed}: {failed} of {attempted} calls "
                                 "failed or disagreed; refusing to pin")
            digests = [c["digest"] for c in run["ops"][0]["calls"]]
            pinned["digests"].setdefault(w["name"], {})[str(seed)] = digests
            log(f"pinned {w['name']} seed {seed}: {' '.join(digests)}")
    with open(DIGESTS_JSON, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def cmd_compare(args):
    """Compares result files of a base and a head commit, per workload."""
    records = {}
    for side, paths in (("base", args.base), ("head", args.head)):
        for path in paths:
            with open(path) as f:
                rec = json.load(f)
            records.setdefault(side, []).append(rec)
    host = {tuple(r["fingerprint"].get(k) for k in HOST_KEYS)
            for rs in records.values() for r in rs}
    if len(host) != 1:
        raise BenchError("refusing to compare: host fingerprints differ "
                         f"({', '.join(HOST_KEYS)}): {sorted(host, key=str)}")
    bench = load_benchmark()
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    rows = {}
    for side, rs in records.items():
        for r in rs:
            for name, m in r["result"]["metrics"].items():
                rows.setdefault((r["workload"], name), {}).setdefault(side, []).append(m["value"])
    worse = 0
    for (workload, name), sides in sorted(rows.items()):
        base, head = sides.get("base", []), sides.get("head", [])
        if not base or not head:
            continue
        b, h = statistics.median(base), statistics.median(head)
        spec = specs.get(name, {})
        bound = spec.get("bound")
        change = (h - b) / b if b else 0.0
        if spec.get("better") == "higher":
            change = -change
        verdict = ""
        if bound is not None:
            if len(base) >= 4 and spread(base) > bound:
                verdict = "unresolved (base spread exceeds bound)"
            elif change > bound:
                verdict, worse = "WORSE than bound", worse + 1
            else:
                verdict = "within bound"
        print(f"{workload:22} {name:30} base {b:.6g} head {h:.6g} "
              f"({100 * change:+.2f}% worse) {verdict}")
    return 1 if worse else 0


def main(argv):
    if argv and argv[0] in ("pin", "compare"):
        parser = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        if argv[0] == "pin":
            parser.add_argument("--seeds", type=int, nargs="+", required=True)
            parser.add_argument("--held-out", type=int, nargs="*", default=[])
            return cmd_pin(parser.parse_args(argv[1:])) or 0
        parser.add_argument("--base", nargs="+", required=True)
        parser.add_argument("--head", nargs="+", required=True)
        return cmd_compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result with its fingerprint here")
    cmd_run(parser.parse_args(argv))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(2)
