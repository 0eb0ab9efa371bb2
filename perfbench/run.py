#!/usr/bin/env python3
"""Run one workload of the Prism benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload nutanix --seed 1 --seconds 10 --trace 0

Builds perfbench/bench.exe with dune (inside the checkout's _build), runs it
once and passes its report through. The last line of standard output is
the benchmark's JSON result. Any further options (--fault, --oracle,
--setup-reps) go to bench.exe unchanged; see perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["nutanix", "read-uniform", "cluster-2pc", "check-dpor"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no child outlives the benchmark."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def revision():
    if not os.path.isdir(".git"):
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    code, out = run_group(["git", "rev-parse", "--short=12", "HEAD"], 30,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, env=env)
    return out.strip() if code == 0 and out.strip() else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = ap.parse_known_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a Prism source checkout (no dune-project or lib/ here)")

    # No shared dune cache: the build reads and writes only this checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(["dune", "build", "--root", ".", "-j", "2", "./perfbench/bench.exe"],
                        BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if code != 0 or not os.path.isfile(EXE):
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", revision()] + extra
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail("bench.exe exited with code %d" % code)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("bench.exe printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys: %s" % sorted(result))


if __name__ == "__main__":
    main()
