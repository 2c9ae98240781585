#!/usr/bin/env python3
"""Build and run the repository benchmark (see vqebench/README.md).

    python3 vqebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds the runner with
CMake in Release mode (into $CARGO_TARGET_DIR, default .bench_build),
runs it with every VARSAW_* variable removed from its environment,
and relays its output. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}, checked
here against the metric names and units declared in BENCHMARK.json.
Exits non-zero, without a result line, when the sources are missing,
the build fails, or the output is malformed; exits non-zero with the
result line when an output check failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message, code=2):
    print(f"vqebench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


_children = {}  # pid -> whether it leads its own process group


def _kill(pid, group):
    try:
        if group:
            os.killpg(pid, signal.SIGKILL)
        else:
            os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def _terminate(signum, _frame):
    for pid, group in list(_children.items()):
        _kill(pid, group)
    # SystemExit unwinds through run(), whose Popen context reaps.
    sys.exit(128 + signum)


def run(cmd, timeout, group=False, **kwargs):
    """Run @cmd and wait for it; with @group, in its own process group
    (for make and its compiler children). On timeout, or when this
    script is told to stop, the child (or its whole group) is killed
    and reaped."""
    with subprocess.Popen(cmd, process_group=0 if group else None,
                          **kwargs) as proc:
        _children[proc.pid] = group
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill(proc.pid, group)
            proc.communicate()
            raise
        finally:
            _children.pop(proc.pid, None)
    return proc.returncode, out


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    # Shrink passes (the smoke test uses these).
    p.add_argument("--iterations", type=int)
    p.add_argument("--inputs", type=int)
    return p.parse_args()


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configure once, then (re)build the runner; return its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"the varsaw sources are missing beside {HERE}")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "vqebench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "vqebench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc, _ = run(cmd, max(1.0, deadline - time.monotonic()),
                            group=True, stdout=log,
                            stderr=subprocess.STDOUT)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                # Drop a half-configured cache so the next run
                # configures again.
                if "-S" in cmd:
                    try:
                        os.remove(os.path.join(out, "CMakeCache.txt"))
                    except OSError:
                        pass
                fail(f"build failed (log: {log_path})")
    binary = os.path.join(out, "vqebench")
    if not os.access(binary, os.X_OK):
        fail("build produced no vqebench binary")
    return binary


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not isinstance(result["correct"], bool):
        return "'correct' is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"'{key}' is not a non-negative integer"
    if result["attempted"] < 1:
        return "'attempted' is 0"
    want = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return (f"metrics differ from BENCHMARK.json: missing {missing},"
                f" undeclared {extra}, wrong unit {wrong}")
    return None


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "not a git checkout"
    try:
        _, out = run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                     30, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                     text=True)
        return out.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _terminate)
    args = parse_args()
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.iterations:
        cmd += ["--iterations", str(args.iterations)]
    if args.inputs:
        cmd += ["--inputs", str(args.inputs)]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("VARSAW_")}
    print(f"# git {git_describe()}", flush=True)
    try:
        rc, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, env=env,
                      text=True)
    except subprocess.TimeoutExpired:
        fail(f"runner exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").splitlines()
    if rc not in (0, 1) or not lines:
        sys.stderr.write(out)
        fail(f"runner exited with status {rc}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(out)
        fail("runner's last line is not JSON")
    problem = validate(result, args.trace == "1")
    if problem:
        sys.stderr.write(out)
        fail(problem)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(rc)


if __name__ == "__main__":
    main()
