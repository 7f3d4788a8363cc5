"""Benchmark of the `gjc` CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload figures|scale|sweep --seed N \
        --seconds S --trace 0|1

The seed builds the workload's commands (see workloads.py).  Set-up is
measured in SETUP_SAMPLES fresh interpreters, each importing numpy and gjc
from ./src and running one warm-up command.  The last TIMED_WORKERS of
them (one with --trace 1) then run the workload's commands in-process, in
whole passes, for an equal share of S seconds each, one after the other
(closed loop, one caller, BLAS on one thread).  The timings of all of them
are pooled, so that no single interpreter's luck sets a median.
Afterwards every output is checked
against the README closed forms (checks.py) and every repeat against the
first pass byte for byte.  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics from recorded spans with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
READY_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
KINDS = ("evolve", "spectrum", "verify")

# Every worker started, so that each is stopped and waited for on any way out.
WORKERS = []


class BenchError(RuntimeError):
    """The benchmark could not run to its end; no result is printed."""


def start_worker(plan_file: str, timed_args: list, deadline: float):
    """Start a fresh worker, set-up only if `timed_args` is empty; return it
    and the seconds until it was ready."""
    env = {k: v for k, v in os.environ.items() if k != "GJC_NMAX"}
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    argv = [sys.executable, str(HERE / "worker.py"), plan_file, *(timed_args or ["--setup-only"])]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    WORKERS.append(proc)
    watchdog = threading.Timer(min(READY_TIMEOUT_S, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready_s


def finish_worker(proc, deadline: float) -> None:
    try:
        rest, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker overran its time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {rest.strip()}")


def out_path(argv: list, pass_no: int) -> Path:
    return ROOT / argv[argv.index("--out") + 1].replace("{pass}", str(pass_no))


def check_output(cmd: dict, text: str) -> list:
    if cmd["kind"] == "spectrum":
        return checks.check_spectrum(text, cmd["model"], cmd["n_max"])
    if cmd["kind"] == "evolve":
        return checks.check_evolve(text, cmd["model"], cmd["n_max"], cmd["initial"],
                                   cmd["tmax"], cmd["points"], cmd["engine"])
    return checks.check_verify(text, cmd["threshold"])


def judge(commands: list, passes: list):
    """(failed, wrong, notes): how many commands failed, the wrong outputs
    of the others, and why the failures failed (first pass only).

    Pass 0 is checked in full; every later pass must repeat it byte for byte.
    """
    failed, wrong, notes, digests = 0, [], [], {}
    for p, run in enumerate(passes):
        for i, (cmd, rec) in enumerate(zip(commands, run["commands"])):
            path = out_path(cmd["argv"], p)
            if cmd.get("hostile"):
                written = path.read_text() if path.exists() else None
                why = checks.check_refusal(rec, written)
                if why:
                    failed += 1
                    if p == 0:
                        notes.append(f"FAILED {cmd['hostile']}: {'; '.join(why)}")
                continue
            if rec["exception"] or rec["exit"] != 0:
                failed += 1
                if p == 0:
                    notes.append(f"FAILED {' '.join(cmd['argv'])}: exit {rec['exit']} "
                                 f"{rec['exception'] or rec['stderr'].strip()}")
                continue
            data = path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if i not in digests:
                digests[i] = digest
                try:
                    why = check_output(cmd, data.decode())
                except (ValueError, KeyError, IndexError) as exc:
                    why = [f"unreadable output: {exc}"]
                wrong += [f"WRONG {cmd['label']} {cmd['kind']}: {w}" for w in why]
            elif digest != digests[i]:
                wrong.append(f"WRONG {cmd['label']} {cmd['kind']}: pass {p} output differs from the first")
    return failed, wrong, notes


def end_to_end(commands: list, results: list, setup: list) -> dict:
    passes = [run for result in results for run in result["passes"]]
    times = {kind: [] for kind in KINDS}
    for run in passes:
        for cmd, rec in zip(commands, run["commands"]):
            if not cmd.get("hostile"):
                times[cmd["kind"]].append(rec["s"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(r["wall_s"] for r in passes) / len(passes), "s"),
    }
    for kind in KINDS:
        metrics[f"{kind}_p50_s"] = (statistics.median(times[kind]), "s")
    metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in results), "MB")
    return metrics


def per_layer(result: dict, trace_file: Path, attempted: int):
    """Per-function metrics per pass, and what is wrong with the span trees."""
    n_pass = len(result["passes"])
    stats, roots = tracing.aggregate(str(trace_file))
    problems = []
    if len(roots) != attempted:
        problems.append(f"{len(roots)} root spans for {attempted} commands")
    for name, dur, self_sum, bad in roots:
        if self_sum != dur or bad:
            problems.append(f"span tree of {name}: self times sum to {self_sum} ns of {dur} ns, "
                            f"{bad} spans outside their parent")
    metrics = {"setup.import_s": (result["import_s"], "s")}
    for _module, _path, prefix in tracing.TARGETS:
        row = stats.get(prefix, dict.fromkeys(tracing.FIELDS, 0))
        for field in tracing.FIELDS:
            unit = "s/pass" if field.endswith("_s") else "count/pass"
            metrics[f"{prefix}.{field}"] = (row[field] / n_pass, unit)
    metrics["trace.spans"] = (result["spans"] / n_pass, "count/pass")
    metrics["trace.overhead_s"] = (result["span_ns"] * result["spans"] / n_pass * 1e-9, "s/pass")
    metrics["trace.wall_s"] = (sum(r["wall_s"] for r in result["passes"]) / n_pass, "s")
    return metrics, problems


def run(args) -> dict:
    if not (ROOT / "src" / "gjc" / "cli.py").is_file():
        raise BenchError(f"no gjc sources under {ROOT / 'src'}")
    os.chdir(ROOT)
    out_dir = f".perfbench_out/{args.workload}{'-traced' if args.trace else ''}"
    shutil.rmtree(out_dir, ignore_errors=True)
    Path(out_dir).mkdir(parents=True)
    plan = workloads.build_plan(args.workload, args.seed, out_dir)
    plan.update(trace=args.trace, trace_file=f"{out_dir}/trace.npz")
    plan_file = f"{out_dir}/plan.json"
    Path(plan_file).write_text(json.dumps(plan, indent=1))

    timed = 1 if args.trace else workloads.TIMED_WORKERS[args.workload]
    share = args.seconds / timed
    deadline = time.monotonic() + RUN_LIMIT_S
    setup, results, passes = [], [], []
    for _ in range(0 if args.trace else SETUP_SAMPLES - timed):
        proc, ready_s = start_worker(plan_file, [], deadline)
        finish_worker(proc, deadline)
        setup.append(ready_s)
    for i in range(timed):
        result_file = f"{out_dir}/worker{i}.json"
        proc, ready_s = start_worker(plan_file, [result_file, repr(share), str(len(passes))], deadline)
        finish_worker(proc, deadline)
        setup.append(ready_s)
        results.append(json.loads(Path(result_file).read_text()))
        passes += results[-1]["passes"]

    commands = plan["commands"]
    attempted = len(commands) * len(passes)
    failed, wrong, notes = judge(commands, passes)
    if args.trace:
        metrics, span_problems = per_layer(results[0], Path(plan["trace_file"]), attempted)
        wrong += span_problems
    else:
        metrics = end_to_end(commands, results, setup)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(passes)} passes "
          f"of {len(commands)} commands in {len(results)} interpreters")
    for line in (notes + wrong)[:40]:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  attempted = {attempted}, failed = {failed}, correct = {not wrong}")
    for sub in Path(out_dir).iterdir():
        if sub.is_dir() and sub.name != "docs":
            shutil.rmtree(sub)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in WORKERS:
            proc.kill()
            proc.wait()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
