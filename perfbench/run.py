#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload corpus|context2|serve|all \
        --seed N --seconds S --trace 0|1 [bench.exe options]

Run from the root of a source checkout.  The benchmark is built with dune
into _build/, then run in its own process group; every process of that
group is stopped before this script exits.  Standard output is the
benchmark's own: its last line is the result object.  With --workload all
the three workloads run in turn and the last line maps each workload to
its result.  Exit status: the benchmark's (1 on a failed check), 2 when
the directory holds no sources to build, 3 when the build fails, 4 on a
timeout.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["corpus", "context2", "serve"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT = 175
# Runtime settings per workload.  corpus runs two or more domains: with
# the default minor heap its stop-the-world minor collections make passes
# swing between speed regimes on a small VM, so it gets a 4M-word minor
# heap per domain.  The one-domain workloads run faster with the default
# (see NOTES.md).
OCAMLRUNPARAM = {"corpus": "s=4M", "context2": "", "serve": ""}
# serve runs on one CPU: its client and daemon answer each other in turn,
# and when the scheduler puts them on different CPUs every round trip
# waits for a cross-CPU wake-up, so read latency swung between two levels
# with where they happened to land (see NOTES.md, "Steadiness").
PINNED = {"serve"}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "core"))):
        log("no sources to build here (dune-project and lib/ are missing)")
        return 2
    dune = dune_command()
    if dune is None:
        log("dune is not on PATH")
        return 3
    try:
        # the shared dune cache lives outside the checkout
        done = subprocess.run(
            dune + ["build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
            env=dict(os.environ, DUNE_CACHE="disabled"),
        )
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 3
    if done.returncode != 0 or not os.path.isfile(EXE):
        log("build failed")
        return 3
    return 0


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def stop_group(pgid):
    """Kill whatever is left of the benchmark's process group and wait
    until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_one(workload, args, extra, capture):
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus) if workload in PINNED else None
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--nproc", str(len(cpus)),
        "--commit", commit(),
    ] + (["--cpu", str(cpu)] if cpu is not None else []) + extra
    proc = subprocess.Popen(
        cmd,
        start_new_session=True,
        stdout=subprocess.PIPE if capture else None,
        text=True,
        env=dict(os.environ, OCAMLRUNPARAM=OCAMLRUNPARAM[workload]),
        preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None else None,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        log("%s: timed out" % workload)
        return 4, None
    stop_group(proc.pid)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()
    status = build()
    if status != 0:
        return status
    if args.workload != "all":
        code, _ = run_one(args.workload, args, extra, capture=False)
        return code
    results, worst = {}, 0
    for workload in WORKLOADS:
        code, out = run_one(workload, args, extra, capture=True)
        lines = (out or "").strip().splitlines()
        for line in lines[:-1]:
            print("%s: %s" % (workload, line))
        results[workload] = json.loads(lines[-1]) if code in (0, 1) and lines else None
        worst = max(worst, code)
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
