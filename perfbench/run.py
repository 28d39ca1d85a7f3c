#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/perfbench.exe
with dune (shared build cache off, so nothing is written outside the
checkout), runs the workload in a fresh process and passes its output
through. The last line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. A traced run also leaves its
spans and metrics in perfbench/_out/.

Exit codes: 0 ok, 1 a correctness check failed, 2 not a checkout of
the simulator, 3 build failed, 4 timed out, 5 no result line, 6 the
result's metrics differ from BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join(HERE, "_out")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_child(cmd, env, timeout):
    """Run [cmd], killing it on timeout or when we are terminated."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None, None
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            return fail(2, f"{need} not found: run from the root of a simulator checkout")

    env = dict(os.environ, DUNE_CACHE="disabled", OCAML_RUNTIME_EVENTS_DIR=OUT)
    os.makedirs(OUT, exist_ok=True)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(3, f"build failed: {e}")
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(build.stdout + build.stderr)
        return fail(3, "build failed")

    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", OUT, "--commit", commit(),
    ]
    code, out = run_child(cmd, env, RUN_TIMEOUT_S)
    if code is None:
        return fail(4, f"timed out after {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(out)
        return fail(5, f"no result line (exit {code})")

    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        sys.stderr.write(out)
        return fail(6, "metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}, "
                    f"unit changes {sorted(k for k in want if k in got and got[k] != want[k])}")

    if args.trace:
        path = os.path.join(OUT, f"layers-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump(result, f, indent=1)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
