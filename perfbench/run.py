#!/usr/bin/env python3
"""Build the SASSI benchmark from source, run one workload, print results.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. --smoke builds everything, runs the statistics self-test and
every workload (traced and untraced) on tiny inputs, and exits 0 only
if every check passes. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# Simulator knobs the benchmark sets itself; inherited values are cleared.
KNOBS = [
    "SASSI_SIM_THREADS", "SASSI_SIM_SUPERBLOCKS", "SASSI_SIM_SIMD",
    "SASSI_SIM_HANDLER_FASTPATH", "SASSI_TRACE", "SASSI_FUZZ_JOBS",
    "SASSI_INJECTIONS",
]

# Set-up is timed in the measured process and in this many more
# processes that stop after set-up; setup_s is the median.
SETUP_SAMPLES = 3

# Guard on one benchmark process; a run must end well within 180 s.
PROCESS_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def run_checked(cmd, env=None, timeout=None):
    """Run cmd to completion; on failure show its output and exit."""
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    return proc.stdout


def build(targets, env):
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env=env)
    run_checked(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                 "--target"] + targets, env=env)


def require_sources():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src; run from a full checkout"
             % ROOT, 2)


def clean_env():
    """The environment for every child: no simulator knobs, and
    temporary files kept inside the checkout."""
    env = dict(os.environ)
    cleared = [k for k in KNOBS if env.pop(k, None) is not None]
    if cleared:
        print("# cleared inherited simulator knobs: " + " ".join(cleared))
    env["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def provenance():
    """Commit when this is a git checkout, and always a digest of src/."""
    commit = "none (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            commit = f.read().strip()
        if commit.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", commit[5:])
            if os.path.isfile(ref):
                with open(ref) as f:
                    commit = f.read().strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_bench(args, env):
    """Run the benchmark binary; echo its report, return its JSON line."""
    out = run_checked([os.path.join(BUILD, "sassibench")] + args, env=env,
                      timeout=PROCESS_TIMEOUT_S)
    lines = out.strip().splitlines()
    if not lines:
        fail("sassibench printed nothing")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def measure(a):
    require_sources()
    env = clean_env()
    build(["sassibench"], env)
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds)]
    setup = []
    if not a.trace:
        for _ in range(SETUP_SAMPLES - 1):
            r = run_bench(common + ["--trace", "0", "--setup-only"], env)
            if not r["correct"]:
                fail("set-up-only run failed")
            setup.append(r["setup_s"])
    extra = []
    if a.trace:
        extra = ["--trace-out",
                 os.path.join(ROOT, ".bench_build",
                              "trace-%s-%d.json" % (a.workload, a.seed))]
    result = run_bench(common + ["--trace", str(a.trace)] + extra, env)
    metrics = result["metrics"]
    if not a.trace:
        setup.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setup),
                              "unit": "s"}
        print("# setup_s samples: " +
              " ".join("%.4f" % s for s in setup))
    end_to_end, per_layer = declared_metrics()
    want = per_layer if a.trace else end_to_end
    if set(metrics) != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(want - set(metrics)), sorted(set(metrics) - want)))
    commit, digest = provenance()
    print("# nproc %d, commit %s, src digest %s"
          % (os.cpu_count() or 1, commit, digest))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


def smoke():
    require_sources()
    env = clean_env()
    build(["sassibench", "sassibench_selftest"], env)
    print(run_checked([os.path.join(BUILD, "sassibench_selftest")],
                      env=env, timeout=PROCESS_TIMEOUT_S).strip()
          .splitlines()[-1])
    end_to_end, per_layer = declared_metrics()
    ok = True
    for workload in ["suite_profile", "hot_kernels", "inject_campaign",
                     "fuzz_campaign"]:
        for trace in (0, 1):
            r = run_bench(["--workload", workload, "--seed", "7",
                           "--seconds", "0.2", "--trace", str(trace),
                           "--smoke"], env)
            want = (per_layer if trace else end_to_end) - {"setup_s"}
            good = r["correct"] and set(r["metrics"]) == want
            ok &= good
            print("smoke %-16s trace %d: %s (%d ops, %d failed)"
                  % (workload, trace, "ok" if good else "FAILED",
                     r["attempted"], r["failed"]))
    print("smoke: " + ("all checks passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["suite_profile", "hot_kernels",
                                          "inject_campaign",
                                          "fuzz_campaign"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if a.smoke:
        smoke()
    if not a.workload:
        p.error("--workload is required")
    measure(a)


if __name__ == "__main__":
    main()
