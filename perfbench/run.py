"""entrank benchmark: end-to-end CLI job metrics and a per-layer traced run.

    python3 perfbench/run.py --workload <pure_wide|mixed_lattice|ensemble>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from ./src.
A closed loop with one client runs the workload's job cycle, one
``python -m entrank.cli ...`` subprocess at a time, so every job pays the
interpreter and numpy import floor. Only whole cycles run, as many as fit in
``--seconds`` (at least one), so every run holds each job an equal number of
times. BLAS in the children uses as many threads as this process may use cores.

--trace 0 reports the end-to-end metrics: job_p50_s (median wall clock from
spawn to exit), job_tail_s (the workload's fixed percentile from
workloads.TAIL_PERCENTILE), jobs_per_s (completed jobs over the loop's wall
clock), peak_rss_mb (largest child max-RSS from os.wait4; RSS is per child)
and setup_s (median of three set-ups, each writing the input files and
running an untimed warm-up pass over the workload's cheapest jobs). Jobs
that exit non-zero or fail their output check are counted in ``failed``;
failed / attempted is fail_frac.

--trace 1 spends half the time untraced and half running the same jobs
through ``perfbench/tracer.py`` and reports the per-layer metrics.

Every job's output is checked against a closed-form answer (checks.py), and
each checker is then fed a deliberately wrong copy of a real output, which it
must reject. The last line of stdout is the JSON result; details (machine,
input sha256, per-job figures, the self-test) go to
``.perfbench_results/<workload>-seed<seed>-trace<t>.json``. Nothing traces the
whole system; every figure comes from this process and its children.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
JOB_TIMEOUT_S = 60


@dataclass
class Execution:
    job: object  # workloads.Job
    number: int
    wall_s: float
    rss_kb: int
    code: int
    stdout: Path
    out_file: Path | None
    trace: Path | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_job(job, number: int, work: Path, env: dict, traced: bool) -> Execution:
    args = [a.replace("{n}", str(number)) for a in job.argv]
    stdout = work / "jobs" / f"{number:05d}.out"
    trace = work / "jobs" / f"{number:05d}.trace.json" if traced else None
    if traced:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(number), str(trace), "--", *args]
    else:
        cmd = [sys.executable, "-m", "entrank.cli", *args]
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    out_file = work / job.out_file.replace("{n}", str(number)) if job.out_file else None
    return Execution(job, number, wall, usage.ru_maxrss, proc.returncode, stdout, out_file,
                     trace)


def run_cycles(workload, work: Path, env: dict, seconds: float, traced: bool,
               first_number: int) -> tuple[list[Execution], float]:
    """Whole cycles while the next one is expected to end within ``seconds``.

    At least one cycle runs. Returns the executions and the loop's wall time.
    """
    runs: list[Execution] = []
    number = first_number
    started = time.perf_counter()
    cycles = 0
    while True:
        for job in workload.cycle:
            runs.append(run_job(job, number, work, env, traced))
            number += 1
        cycles += 1
        elapsed = time.perf_counter() - started
        if elapsed * (cycles + 1) / cycles > seconds:
            return runs, elapsed


def set_up(name: str, seed: int, work: Path, env: dict) -> tuple[object, float, list]:
    """Write the inputs and run the warm-up pass; returns (workload, seconds, warm-up runs).

    The files are written by a separate process, so this one never grows
    large: a child's max-RSS from os.wait4 includes what it inherits here.
    """
    import workloads

    if work.exists():
        shutil.rmtree(work)
    (work / "jobs").mkdir(parents=True)
    workload = workloads.BUILDERS[name](seed)
    started = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "inputs.py"), name, str(seed), str(work)],
                   check=True, env=env, timeout=JOB_TIMEOUT_S)
    warm = [run_job(job, 90000 + i, work, env, False) for i, job in enumerate(workload.warmup)]
    return workload, time.perf_counter() - started, warm


def sha256_inputs(workload, work: Path) -> dict[str, str]:
    return {file: hashlib.sha256((work / file).read_bytes()).hexdigest()
            for file, _, _ in workload.inputs}


def verify(runs: list[Execution]) -> list[str]:
    """One entry per failed execution: non-zero exit or a failed output check."""
    import checks

    failures = []
    for r in runs:
        if r.code != 0:
            err = r.stdout.with_suffix(".err").read_text(errors="replace").strip()[-200:]
            failures.append(f"#{r.number} {r.job.label}: exit {r.code}: {err}")
            continue
        try:
            parsed = checks.parse(r.job.expect, r.stdout.read_text(), r.out_file)
            problems = checks.check(r.job.expect, parsed)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            failures.append(f"#{r.number} {r.job.label}: " + "; ".join(problems))
    return failures


def self_test(runs: list[Execution]) -> dict:
    """Feed each checker a wrong copy of one real output per job label.

    Every injected answer must register as a failure: the pseudo-run's
    fail_frac must be 1.
    """
    import checks

    seen, injected, missed = set(), 0, []
    for r in runs:
        if r.job.label in seen or r.code != 0:
            continue
        seen.add(r.job.label)
        try:
            parsed = checks.parse(r.job.expect, r.stdout.read_text(), r.out_file)
        except (ValueError, KeyError, TypeError, IndexError, OSError):
            continue  # verify() has already counted this output as a failure
        injected += 1
        if not checks.check(r.job.expect, checks.mutate(r.job.expect, parsed)):
            missed.append(r.job.label)
    registered = injected - len(missed)
    return {"injected": injected, "registered": registered,
            "fail_frac": registered / injected if injected else 0.0, "missed": missed}


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def machine() -> dict:
    import numpy

    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Data" or level == "1":
                info[f"l{level}_{kind.lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    info["blas_threads"] = int(child_env()["OPENBLAS_NUM_THREADS"])
    info["notes"] = ["peak RSS is per child process (ru_maxrss from os.wait4)",
                     "no system-wide tracing; spans come from perfbench/tracer.py in each child"]
    return info


def per_job(runs: list[Execution]) -> dict:
    by_label: dict[str, list[Execution]] = {}
    for r in runs:
        by_label.setdefault(r.job.label, []).append(r)
    return {label: {"n": len(rs), "median_s": statistics.median(r.wall_s for r in rs),
                    "max_rss_mb": max(r.rss_kb for r in rs) / 1024,
                    "walls_s": [round(r.wall_s, 4) for r in rs]}
            for label, rs in by_label.items()}


def traced_by_label(runs: list[Execution], traces: list[dict]) -> dict:
    """The per-layer metrics of each job label over its traced executions."""
    import tracer

    by_label: dict[str, tuple[list, list]] = {}
    for r, t in zip(runs, traces):
        label_traces, sizes = by_label.setdefault(r.job.label, ([], []))
        label_traces.append(t)
        sizes.append(r.stdout.stat().st_size)
    return {label: {name: m["value"] for name, m in tracer.aggregate(ts, sizes, 0.0).items()
                    if name != "trace.overhead_s"}
            for label, (ts, sizes) in by_label.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that the running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "entrank" / "cli.py").is_file():
        print(f"error: no entrank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from"
              f" {sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_root = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    env = child_env()
    details: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                     "trace": args.trace, "why": workloads.WHY[args.workload],
                     "loop": "closed, one client, whole job cycles"}
    try:
        repeats = SETUP_REPEATS if args.trace == 0 else 1
        setups, warm = [], []
        for i in range(repeats):
            workload, elapsed, warm_runs = set_up(args.workload, args.seed,
                                                  work_root / f"setup{i}", env)
            setups.append(elapsed)
            warm += warm_runs
        work = work_root / f"setup{repeats - 1}"
        details["inputs_sha256"] = sha256_inputs(workload, work)
        details["setup_s_each"] = setups

        if args.trace == 0:
            runs, loop_s = run_cycles(workload, work, env, args.seconds, False, 0)
            traced_runs = []
        else:
            runs, loop_s = run_cycles(workload, work, env, args.seconds / 2, False, 0)
            traced_runs, _ = run_cycles(workload, work, env, args.seconds / 2, True, len(runs))

        details["machine"] = machine()
        failures = verify(runs + traced_runs)
        warm_failures = verify(warm)
        test = self_test(runs)
        walls = [r.wall_s for r in runs]
        tail_p = workloads.TAIL_PERCENTILE[args.workload]
        tail = percentile(walls, tail_p)
        attempted = len(runs) + len(traced_runs)
        correct = not failures and not warm_failures and test["fail_frac"] == 1.0
        details.update({
            "jobs": len(runs), "loop_s": loop_s, "cycle_jobs": len(workload.cycle),
            "tail_percentile": tail_p, "jobs_beyond_tail": sum(w > tail for w in walls),
            "fail_frac": len(failures) / attempted, "failures": failures[:20],
            "warmup_failures": warm_failures, "self_test": test,
            "per_job": per_job(runs),
        })
        if args.trace == 0:
            metrics = {
                "job_p50_s": {"value": statistics.median(walls), "unit": "s"},
                "job_tail_s": {"value": tail, "unit": "s"},
                "jobs_per_s": {"value": len(runs) / loop_s, "unit": "1/s"},
                "peak_rss_mb": {"value": max(r.rss_kb for r in runs) / 1024, "unit": "MB"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
            }
        else:
            import tracer

            traces = [json.loads(r.trace.read_text()) for r in traced_runs if r.code == 0]
            ok_traced = [r for r in traced_runs if r.code == 0]
            overhead = (statistics.median(r.wall_s for r in traced_runs)
                        - statistics.median(walls))
            metrics = tracer.aggregate(traces, [r.stdout.stat().st_size for r in ok_traced],
                                       overhead)
            details["traced_jobs"] = len(traced_runs)
            details["traced_per_job"] = traced_by_label(ok_traced, traces)
            details["absent"] = sorted(set().union(*(t["absent"] for t in traces)))
            correct = correct and bool(traces)
        details["metrics"] = metrics
        results = ROOT / ".perfbench_results"
        results.mkdir(exist_ok=True)
        (results / f"{tag}.json").write_text(json.dumps(details, indent=2) + "\n")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    print(f"{args.workload}: {attempted} jobs, {len(failures)} failed, self-test"
          f" {test['registered']}/{test['injected']} injected errors caught,"
          f" job_tail_s is p{tail_p}; details in .perfbench_results/{tag}.json")
    for line in failures[:5] + warm_failures[:5]:
        print("FAIL", line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
