#!/usr/bin/env python3
"""besselsum benchmark: four workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload panel_sweep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` runs the same ops untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  Every op's output is checked against an
independent reference outside the timed region.  The last line of standard
output is one JSON object; a fuller report goes to ``bench/results/``.
``--workload all`` runs every workload in turn and prints one table.

One process, one client, closed loop: ops run back to back, one at a time,
with BLAS/OpenMP pools pinned to one thread.  A run measures whole passes
(one pass is one batch of ops from the seeded generator) until ``--seconds``
of timed wall time have passed.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ops import ROOT, THREAD_VARS, ProgramMissing, load_besselsum, run_cli, warm_up  # noqa: E402

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import special  # noqa: E402

import metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORK, WORKLOADS, child_env, cli_argvs  # noqa: E402

RESULTS = ROOT / "bench" / "results"
#: set-up is measured this many times per run, in fresh interpreters
SETUP_REPS = 3
#: fresh interpreters per start-up figure in a traced run
PROBE_REPS = 3
#: timed seconds between two calibration units
CAL_EVERY_S = 0.25
#: seconds one calibration unit takes at the nominal host speed
CAL_NOMINAL_S = 0.035
_CAL_X = np.linspace(1.0, 1000.0, 10**5)


def calibrate() -> float:
    """Seconds for one calibration unit, ``scipy.special.jv`` on 1e5 points:
    a fixed piece of work that runs no code of the program.

    The speed of a shared host drifts by tens of percent within a minute,
    and this unit slows down with it.  Op times and throughput are reported
    scaled by CAL_NOMINAL_S / (mean calibration time over the timed loop),
    i.e. at the nominal host speed; the report keeps the raw figures.
    """
    t0 = time.perf_counter()
    special.jv(0.7, _CAL_X)
    return time.perf_counter() - t0


def _spawn_wall(cmd: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def measure_setup(workload: str) -> list[float]:
    """``import besselsum`` plus one warm-up op, each in a fresh interpreter."""
    cmd = [sys.executable, str(ROOT / "bench" / "probe.py"), "setup", workload]
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=170)
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def measure_cli(bs, seed: int) -> dict[str, float]:
    """Interpreter start, ``import besselsum`` over a bare interpreter, and
    the in-process time of the ``cli_cold`` commands (mean per command)."""
    env = child_env()
    WORK.mkdir(parents=True, exist_ok=True)
    interp = [_spawn_wall([sys.executable, "-c", "pass"], env) for _ in range(PROBE_REPS)]
    imported = [_spawn_wall([sys.executable, "-c", "import besselsum"], env)
                for _ in range(PROBE_REPS)]
    argvs = [argv for _cmd, _spec, argv in cli_argvs(np.random.default_rng(seed), -1)]
    times = []
    for argv in argvs:
        run_cli(bs, argv)
        t0 = time.perf_counter()
        run_cli(bs, argv)
        times.append(time.perf_counter() - t0)
    interp_s = statistics.median(interp)
    return {"interp_start_s": interp_s, "import_s": statistics.median(imported) - interp_s,
            "command_s": sum(times) / len(times)}


def run_ops(wl, seconds: float, tracer=None, passes=None, cal=None):
    """Run whole passes, at least one, until ``seconds`` of timed wall time
    (or replay ``passes``).  Returns (records, timed wall seconds, passes).
    With a ``cal`` list, a calibration unit is timed between two ops every
    CAL_EVERY_S seconds, outside the timed wall time."""
    records, wall, done = [], 0.0, []
    while (wall < seconds or not done) if passes is None else (len(done) < len(passes)):
        batch = wl.next_pass() if passes is None else passes[len(done)]
        done.append(batch)
        start = last_cal = time.perf_counter()
        for op in batch:
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.begin(wl.name, op.id)
            try:
                out = wl.run(op, tracer)
            except Exception as exc:  # an op's error is its outcome; verify() scores it
                out = exc.with_traceback(None)  # keep no frames (and their arrays) alive
            if tracer is not None:
                tracer.end(type(out).__name__ if isinstance(out, Exception) else None)
            t1 = time.perf_counter()
            records.append((op, out, t1 - t0))
            if cal is not None and t1 - last_cal >= CAL_EVERY_S:
                cal.append(calibrate())
                last_cal = time.perf_counter()
                start += last_cal - t1
        wall += time.perf_counter() - start
    return records, wall, done


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
        "load": "one process, one client, closed loop",
    }


def _counts(outcomes: list[str]) -> dict[str, int]:
    return {key: outcomes.count(key) for key in ("solved", "unsolved", "unverified", "failed")}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run; returns (the result line, the full report)."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment()}
    bs = load_besselsum()
    setup = [] if trace else measure_setup(name)
    warm_up(bs, name)
    calibrate()  # the first call pays one-time costs
    wl = WORKLOADS[name](bs, seed)
    cal: list[float] = []
    records, wall, passes = run_ops(wl, seconds, cal=None if trace else cal)
    rss_mb = peak_rss_mb(name)
    cal.append(calibrate())
    if trace:
        untraced_wall = wall
        tracer = Tracer()
        tracer.install()
        try:
            records, wall, _ = run_ops(wl, seconds, tracer, passes)
        finally:
            tracer.uninstall()
    outcomes = wl.verify(records)
    counts = _counts(outcomes)
    attempted = len(records)
    report.update(timed_wall_s=wall, passes=len(passes), attempted=attempted, **counts,
                  bound_misses=wl.bound_misses, mix=wl.mix(records),
                  outcomes_by_kind=_by_kind(records, outcomes))
    if trace:
        summary = tracer.summary()
        values = metrics.layer_metrics(summary, attempted, counts["solved"],
                                       wall / untraced_wall - 1.0, measure_cli(bs, seed))
        units = metrics.PER_LAYER
        spans_path = RESULTS / f"{name}-seed{seed}.spans.jsonl.gz"
        tracer.write(spans_path)
        report.update(untraced_wall_s=untraced_wall, spans=len(tracer.spans),
                      spans_file=str(spans_path.relative_to(ROOT)), absent=tracer.absent,
                      self_s_total=sum(tracer.self_times()) * 1e-9, layers=summary,
                      moves=metrics.MOVES)
    else:
        op_ms = [dt * 1e3 for _op, _out, dt in records]
        raw = {
            "setup_s": statistics.median(setup),
            "solved_per_s": counts["solved"] / wall,
            "op_ms_p50": metrics.percentile(op_ms, 50),
            "op_ms_p90": metrics.percentile(op_ms, 90),
        }
        scale = CAL_NOMINAL_S / (sum(cal) / len(cal))
        values = {
            "setup_s": raw["setup_s"],
            "solved_per_s": raw["solved_per_s"] / scale,
            "op_ms_p50": raw["op_ms_p50"] * scale,
            "op_ms_p90": raw["op_ms_p90"] * scale,
            "solved_frac": counts["solved"] / attempted,
            "peak_rss_mb": rss_mb,
        }
        units = metrics.END_TO_END
        report.update(setup_samples_s=setup, op_samples=len(op_ms), raw=raw,
                      calibration_s=cal, time_scale=scale)
    report["metrics"] = {k: {"value": v, "unit": units[k][0]} for k, v in values.items()}
    result = {"correct": counts["failed"] == 0, "attempted": attempted,
              "failed": counts["failed"], "metrics": report["metrics"]}
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    report["report_file"] = str(path.relative_to(ROOT))
    return result, report


def _by_kind(records, outcomes) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {}
    for (op, _out, _dt), outcome in zip(records, outcomes):
        kind = out.setdefault(op.kind, {})
        kind[outcome] = kind.get(outcome, 0) + 1
    return out


def print_report(report: dict) -> None:
    print(f"besselsum benchmark  workload={report['workload']}  seed={report['seed']}  "
          f"trace={report['trace']}  passes={report['passes']}  "
          f"timed_wall={report['timed_wall_s']:.3f} s")
    for key, metric in report["metrics"].items():
        print(f"  {key:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  attempted={report['attempted']} solved={report['solved']} "
          f"unsolved={report['unsolved']} unverified={report['unverified']} "
          f"failed={report['failed']} bound_misses={report['bound_misses']}")
    if report.get("absent"):
        print(f"  absent spans: {', '.join(report['absent'])}")
    print(f"  report: {report['report_file']}")


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process, then one table."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        sys.stdout.write(proc.stdout)
        report = json.loads((RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").read_text())
        rows[name] = report
    names = list(rows)
    keys = list(rows[names[0]]["metrics"])
    print("\n" + f"{'metric':34s} {'unit':6s}" + "".join(f"{n:>14s}" for n in names))
    for key in keys:
        unit = rows[names[0]]["metrics"][key]["unit"]
        print(f"{key:34s} {unit:6s}" + "".join(
            f"{rows[n]['metrics'][key]['value']:>14.5g}" for n in names))
    for count in ("attempted", "solved", "unsolved", "unverified", "failed"):
        print(f"{count:34s} {'ops':6s}" + "".join(f"{rows[n][count]:>14d}" for n in names))
    summary = RESULTS / f"summary-seed{seed}-trace{int(trace)}.json"
    summary.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"summary: {summary.relative_to(ROOT)}")
    return 0 if all(rows[n]["failed"] == 0 for n in names) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
