"""One fresh interpreter of the benchmark: import gjc, warm up, run passes.

Usage: python3 perfbench/worker.py PLAN.json --setup-only
       python3 perfbench/worker.py PLAN.json RESULT.json SECONDS FIRST_PASS

Run from the checkout root.  The worker imports `gjc` from ./src, runs the
plan's warm-up command untimed and prints `ready` on stdout.  Unless
--setup-only, it then repeats the plan's commands in whole passes, each
through `gjc.cli.main(argv)` in this process, for the number of passes
that ends nearest to SECONDS (at least one).  Passes are numbered from
FIRST_PASS, which names their output directories.  It writes per-command
timings, exit codes and captured stderr, the peak resident memory and,
with tracing on, the span file, to RESULT.json.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, os.path.abspath("src"))
import gjc.cli  # noqa: E402  (imports numpy)

IMPORT_S = time.perf_counter() - T_START


def _argv_for(argv: list, pass_no) -> list:
    return [a.replace("{pass}", str(pass_no)) for a in argv]


def _make_out_dirs(argv: list) -> None:
    for flag, value in zip(argv, argv[1:]):
        if flag == "--out":
            Path(value).parent.mkdir(parents=True, exist_ok=True)


def run_command(call, argv: list) -> dict:
    """Run one command through `call`, timing only the call itself."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = call(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a traceback from the program is a recorded outcome
            code, exc = None, f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
    return {"s": t1 - t0, "exit": code, "exception": exc, "stderr": err.getvalue()}


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    setup_only = sys.argv[2] == "--setup-only"
    if not Path(gjc.cli.__file__).resolve().is_relative_to(Path("src").resolve()):
        print(f"gjc imported from {gjc.cli.__file__}, not from ./src", file=sys.stderr)
        return 2

    warmup = plan["warmup"]
    _make_out_dirs(warmup)
    if run_command(gjc.cli.main, warmup)["exit"] != 0:
        print(f"warm-up command failed: {warmup}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if setup_only:
        return 0
    result_file, seconds, first_pass = sys.argv[2], float(sys.argv[3]), int(sys.argv[4])

    tracer = None
    calls = {}
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        span_ns = tracing.span_cost_ns(tracer)
        tracing.install(tracer)
        for kind in ("spectrum", "evolve", "verify"):
            calls[kind] = tracer.wrap(f"command.{kind}", lambda argv: gjc.cli.main(argv))

    passes = []
    phase_start = time.perf_counter()
    while True:
        argvs = [_argv_for(c["argv"], first_pass + len(passes)) for c in plan["commands"]]
        for argv in argvs:
            _make_out_dirs(argv)
        t0 = time.perf_counter()
        records = [run_command(calls.get(argv[0]) or gjc.cli.main, argv) for argv in argvs]
        passes.append({"wall_s": time.perf_counter() - t0, "commands": records})
        elapsed = time.perf_counter() - phase_start
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"import_s": IMPORT_S, "passes": passes, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        result["span_ns"] = span_ns
        result["spans"] = tracer.spans()
        tracer.dump(plan["trace_file"])
    Path(result_file).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
