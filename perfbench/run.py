#!/usr/bin/env python3
"""GLAF++ benchmark: one command, two workloads, three phases in each.

    python3 perfbench/run.py --workload paper|large \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The script builds the benchmark program
(perfbench/CMakeLists.txt, which compiles the libraries in src/) into the
build directory -- $CARGO_TARGET_DIR when set, else .bench_build -- and
runs it in a fresh per-run directory under that build directory, with a
private kernel cache, socket and TMPDIR. The program's last stdout line is
the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics
under --trace 1 (see BENCHMARK.json). A side report with provenance and
the traced run's Chrome trace-event JSON are kept under
<build dir>/reports/. The exit status is the program's: 0 when every
output check passed, 1 on any mismatch, native fallback, typed error or
shed request, 2 when the benchmark could not be built or run.

Every run goes through the compile, kernels and serve phases; the
workload sets the problem sizes and the serve request mix.

--smoke runs every workload briefly, untraced and traced, and checks that
each run reports exactly the metrics BENCHMARK.json names for its trace
mode, each with its unit.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper", "large")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure (once) and build the program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no GLAF++ sources under {ROOT}/src; run from a full checkout")
        return None
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "glaf_perfbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            return None
    exe = os.path.join(out, "glaf_perfbench")
    return exe if os.path.isfile(exe) else None


def run_once(exe, workload, seed, seconds, trace, smoke=False):
    """Run the program once; returns (exit code, stdout lines)."""
    out = build_dir()
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = os.path.join(out, "runs", f"{tag}-{os.getpid()}-{time.time_ns()}")
    reports = os.path.join(out, "reports")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    os.makedirs(reports, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(work, "tmp")
    env["GLAF_KERNEL_CACHE"] = os.path.join(work, "cache")
    env.pop("GLAF_FAULT", None)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--work-dir", work,
           "--report", os.path.join(reports, f"{tag}.json")]
    if trace:
        cmd += ["--trace-out", os.path.join(reports, f"{tag}.trace.json")]
    if smoke:
        cmd.append("--smoke=1")
    # Own process group, so a timeout also stops the compilers the program
    # spawned; every process is waited for before the work dir goes.
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{tag} timed out after {RUN_TIMEOUT_S} s")
        code, stdout = 2, ""
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    return code, stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def smoke(exe):
    """Every workload briefly, untraced and traced; check metric names."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ok = set(names) == set(WORKLOADS)
    if not ok:
        log(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for workload in WORKLOADS:
            code, lines = run_once(exe, workload, 1, 1, trace, smoke=True)
            res = parse_result(lines)
            if code != 0 or res is None or not res["correct"] or \
                    res["attempted"] < 1:
                log(f"smoke {workload} trace={trace}: exit {code}, "
                    f"result {lines[-1] if lines else None}")
                ok = False
                continue
            seen = {name: m["unit"] for name, m in res["metrics"].items()}
            for name, unit in want.items():
                if seen.get(name) != unit:
                    log(f"smoke {workload} {group}: {name} [{unit}] "
                        f"reported as {seen.get(name)}")
                    ok = False
            for name in sorted(set(seen) - set(want)):
                log(f"smoke {workload} {group}: {name} is not declared in "
                    "BENCHMARK.json")
                ok = False
    log("smoke " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measurement length (default: BENCHMARK.json's "
                    "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]

    exe = build()
    if exe is None:
        return 2
    if args.smoke:
        return smoke(exe)
    code, lines = run_once(exe, args.workload, args.seed, args.seconds,
                           args.trace)
    if parse_result(lines) is None:
        log(f"program printed no result (exit {code})")
        return 2
    sys.stdout.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
