"""Benchmark of the normalhst command line, one workload per run.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 27 --trace 0

Run it from the repository root.  Every end-to-end metric of every
workload:

    for w in enumerate scaled large search; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 27 --trace 0
    done

A run writes the workload's inputs under ``perfbench/.work/`` from
``--seed`` (one input set per seed; its result, environment and every
sample go to ``perfbench/.work/results/``), then

* with ``--trace 0`` times one no-op CLI start several times (``setup_s``)
  and runs the workload's operation list as subprocesses, one at a time
  (a closed loop with one client), pass after pass over the same
  inputs for ``--seconds``; each child's peak RSS and CPU time come from
  its own rusage (``os.wait4``);
* with ``--trace 1`` replays the same operations in process through
  ``normalhst.cli.main``, with a small fixed list that runs every layer,
  alternating untraced and traced passes, and reports every per-layer
  metric (see ``tracing.py``).

Every answer is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines
before it describe the environment and the run.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import pools  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
RESULTS = os.path.join(WORK, "results")   # one JSON file per run, kept
OP_CAP_S = 30            # an operation running longer is killed and fails
SETUP_STARTS = 7         # no-op CLI starts timed for setup_s
NOOP = ["--help"]


def program_env():
    """One fixed environment for every child: pinned hash seed, no ceiling."""
    return {"PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": SRC,
            "PYTHONHASHSEED": "0",
            "PYTHONUTF8": "1"}


def run_cli(argv, out_path):
    """Run one CLI call as a child; return (exit code, wall, cpu, rss_mb).

    The child's stdout goes to ``out_path``.  Its rusage comes from
    ``os.wait4`` on its own pid, so no other child is mixed in.  A child
    still running after ``OP_CAP_S`` is killed; its exit code is then
    negative.
    """
    cmd = [sys.executable, "-m", "normalhst.cli", *argv]
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=program_env())

        def kill(signum, frame):
            os.kill(proc.pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def measure(ops, work, seconds):
    """Subprocess passes over ``ops`` for ``seconds``.

    Returns (metrics, attempted, failed, failure reasons, notes, samples);
    ``samples[i]`` lists operation i's (wall, cpu, rss_mb) per pass.
    """
    setup = []
    for i in range(SETUP_STARTS):
        code, wall, _, _ = run_cli(NOOP, os.path.join(work, "noop.out"))
        if code != 0:
            raise SystemExit(f"no-op CLI start failed with exit {code}")
        setup.append(wall)

    samples = [[] for _ in ops]
    passes, reasons = [], []
    certified = attempted = failed = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            out_path = os.path.join(work, f"op-{i}.out")
            code, wall, cpu, peak = run_cli(op["argv"], out_path)
            with open(out_path, encoding="utf-8", errors="replace") as handle:
                stdout = handle.read()
            attempted += 1
            reason = (f"killed at the {OP_CAP_S} s cap" if code < 0
                      else check.check(op, code, stdout))
            if reason is not None:
                failed += 1
                reasons.append(f"{' '.join(op['argv'])}: {reason}")
            certified += check.certified(op, stdout)
            samples[i].append((wall, cpu, peak))
        passes.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(passes) > seconds:
            break

    # Each operation's wall time is its median over the passes, so a stall
    # that hits it in one pass does not count, and every metric rests on
    # the same operations however many passes the run makes.
    medians = sorted(statistics.median(w for w, _, _ in op_samples)
                     for op_samples in samples)
    tail = math.ceil(len(medians) / 4)
    cpus = [c for op_samples in samples for _, c, _ in op_samples]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(medians), "s"),
        "op_geomean_s": (statistics.geometric_mean(medians), "s"),
        "op_tail_s": (statistics.mean(medians[-tail:]), "s"),
        "peak_rss_mb": (max(r for op_samples in samples
                            for _, _, r in op_samples), "MB"),
        "certified_ratio": (certified / attempted, "ratio"),
    }
    notes = [
        f"passes {len(passes)} of {statistics.median(passes):.3f} s median, "
        f"operations per pass {len(samples)}, samples {len(cpus)}",
        f"op_tail_s is the mean of the slowest {tail} of {len(medians)} "
        "operations",
        f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted})",
        f"op_cpu_p50_s {statistics.median(cpus):.4f}, "
        f"cpu per pass {sum(cpus) / len(passes):.4f} s",
    ]
    return metrics, attempted, failed, reasons, notes, samples


def git_commit():
    """HEAD of the git checkout at the root, or None outside one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            # Look no higher than the root for a repository.
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "commit": git_commit() or "unknown (not a git checkout)",
            "limits": "measures only its own child processes, from their "
                      "rusage; no system-wide tracing and no cache dropping; "
                      "timings on a shared machine carry its noise"}


def main(argv=None):
    parser = argparse.ArgumentParser(description="normalhst CLI benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "normalhst", "cli.py")):
        print(f"error: no program source under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    os.environ.pop("NORMALHST_CEILING", None)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    setup_start = time.perf_counter()
    data = pools.load()
    ops = workloads.build(args.workload, args.seed, work, data)
    generate_s = time.perf_counter() - setup_start

    if args.trace:
        metrics, attempted, failed, reasons, notes = tracing.run(
            ops + workloads.coverage(work, data), args.seed, args.seconds,
            ROOT)
        samples = None
    else:
        # Compile the program's bytecode once, outside any timing.
        code, _, _, _ = run_cli(NOOP, os.path.join(work, "noop.out"))
        if code != 0:
            print(f"error: the CLI does not start (exit {code})",
                  file=sys.stderr)
            return 1
        metrics, attempted, failed, reasons, notes, samples = measure(
            ops, work, args.seconds)

    env = environment()
    for key, value in env.items():
        print(f"env {key}: {value}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"inputs generated in {generate_s:.3f} s")
    for note in notes:
        print(note)
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-{args.seed}-{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"environment": env, "workload": args.workload,
                   "seed": args.seed, "notes": notes, "failures": reasons,
                   "operations": [op["argv"] for op in ops],
                   "samples": samples, **result}, handle, indent=1)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
