#!/usr/bin/env python3
"""Repository benchmark: builds the measuring process and the `dmp`
daemon from source, runs one workload, gates exact counts and prints
the result as one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-warm --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics of the named workload; --trace 1
is the traced run and prints the per-layer metrics (see
perfbench/README.md). State that must survive between runs of one
commit (the warm sweep's disk cache, recorded counts, span files) lives
under .perfbench/<source digest>/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["sweep-warm", "compile-cold", "serve-zipf"]
BENCH_EXE = "_build/default/perfbench/bench.exe"
DMP_EXE = "_build/default/bin/dmp.exe"
SOURCES = ["dune-project", "lib", "bin", "perfbench"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Build both executables; the output goes to stderr."""
    if not os.path.isfile("dune-project"):
        log("no dune-project here: run from the root of a checkout")
        return False
    try:
        # No shared dune cache: the build reads and writes only here.
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/dmp.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=dict(os.environ, DUNE_CACHE="disabled"),
        )
    except FileNotFoundError:
        log("dune is not on PATH")
        return False
    return done.returncode == 0


def source_digest():
    """Digest of every OCaml source and build file, so each commit gets
    its own state."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(top)
            for f in fs
            if f == "dune" or f.endswith((".ml", ".mli"))
        )
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:20]


def gate(path, counts, label):
    """Compare exact counts with the first run's record of this commit;
    the first run writes the record. Returns (compared, mismatched)."""
    if not counts:
        return 0, 0
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(counts, f, indent=1, sort_keys=True)
        return 0, 0
    with open(path) as f:
        recorded = json.load(f)
    bad = 0
    for name in sorted(set(recorded) | set(counts)):
        if recorded.get(name) != counts.get(name):
            log(f"{label} count {name}: recorded {recorded.get(name)}, now {counts.get(name)}")
            bad += 1
    return len(counts), bad


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if not build():
        log("build failed")
        return 1

    state = os.path.join(".perfbench", source_digest())
    os.makedirs(state, exist_ok=True)
    cmd = [
        BENCH_EXE, "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--state", state,
        "--dmp", DMP_EXE,
    ]
    # Own process group, so an interrupted run takes the daemon down too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    out, _ = proc.communicate()
    if proc.returncode != 0:
        log(f"measuring process exited with {proc.returncode}")
        # A crash can leave the daemon it started behind in its group.
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    mode = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[mode]}
    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    if {n: m["unit"] for n, m in metrics.items()} != declared:
        log(f"metrics do not match BENCHMARK.json {mode}: "
            f"missing {sorted(set(declared) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(declared))}")
        failed += 1

    # Exact-count gate: every run of one commit must reproduce the counts;
    # seed-dependent ones are compared among runs of the same seed.
    tag = f"{args.workload}-t{args.trace}"
    for path, counts, label in [
        (f"counts-{tag}.json", result["counts"], tag),
        (f"counts-{tag}-s{args.seed}.json", result["seed_counts"], f"{tag} seed {args.seed}"),
    ]:
        compared, bad = gate(os.path.join(state, path), counts, label)
        attempted += compared
        failed += bad
    for name, value in sorted({**result["counts"], **result["seed_counts"]}.items()):
        print(f"count {name} {value}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: metrics[n] for n in declared if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
