"""Check that this tree's `gjc` gives another tree's bytes.

    python3 tools/byte_identity.py PARENT_TREE
    python3 tools/byte_identity.py REVISION      # for example HEAD

PARENT_TREE is a checkout that holds src/gjc.  An argument that is not a
directory is read as a git revision of this repository: it is checked out
with `git worktree add --detach` in a temporary directory, and the worktree
is removed afterwards, also when a step fails.

Runs every command of one pass of the benchmark's `figures`, `scale` and
`sweep` workloads (`perfbench/workloads.py` `build_plan`), seeds 1-4, and
the commands of EXTRA, in-process through `gjc.cli.main`: once against
this tree's `src` and once against `PARENT_TREE/src`.  Each tree runs in
its own interpreter, in its own empty temporary working directory, so the
relative paths that outputs carry (a `--config` document's, for example)
are the same, and at one BLAS thread, since the oracle's bytes depend on
the thread count.  Every output file, stdout, stderr and exit code is
compared.  One line is printed per difference; the exit code is 1 on any
difference and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("figures", "scale", "sweep")
SEEDS = (1, 2, 3, 4)
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# Commands outside the workloads whose CSVs reach other corners of the
# writer: a negative and a one- or two-point grid, the oracle alone, exact
# zeros, 5-digit row numbers over many blocks, and values up to e+14.
EXTRA = (
    "evolve --model jc --nmax 64 --tmax -5 --engine both",
    "evolve --model jc --nmax 64 --points 1 --engine both",
    "evolve --model jc --nmax 64 --points 2 --engine both",
    "evolve --model kerr-two-photon --nmax 128 --engine oracle",
    "evolve --model jc --nmax 64 --initial fock:e:0 --engine both",
    "spectrum --model jc --nmax 20000",
    "spectrum --model q-deformed --nmax 600",
)


def run_commands(src: Path, records_file: Path) -> None:
    """Run every command in the working directory through `gjc.cli.main`
    imported from `src`, and write one record per command to `records_file`."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import gjc.cli
    import workloads

    if not Path(gjc.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"gjc imported from {gjc.cli.__file__}, not from {src}")
    commands = [
        [arg.replace("{pass}", "1") for arg in command["argv"]]
        for workload in WORKLOADS
        for seed in SEEDS
        for command in workloads.build_plan(workload, seed, f"{workload}-{seed}")["commands"]
    ]
    commands += [[*extra.split(), "--out", f"extra/{i}.csv"] for i, extra in enumerate(EXTRA)]
    records = []
    for argv in commands:
        Path(argv[argv.index("--out") + 1]).parent.mkdir(parents=True, exist_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = gjc.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is an outcome to compare
                code = f"{type(exc).__name__}: {exc}"
        records.append(
            {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        )
    records_file.write_text(json.dumps(records))


def outputs(tree: Path, scratch: Path):
    """The command records and the output files ({relative path: SHA-256}) of
    `tree`, run in a fresh interpreter inside `scratch`."""
    work, records_file = scratch / "work", scratch / "records.json"
    work.mkdir()
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update(BLAS_THREADS)
    src = tree.resolve() / "src"
    argv = [sys.executable, str(Path(__file__).resolve()), "--run", str(src), str(records_file)]
    subprocess.run(argv, cwd=work, env=env, check=True)
    files = {
        str(path.relative_to(work)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(work.rglob("*"))
        if path.is_file()
    }
    return json.loads(records_file.read_text()), files


def differences(parent, change) -> list:
    """One line per command field and per output file that differs."""
    (parent_records, parent_files), (records, files) = parent, change
    lines = []
    for before, after in zip(parent_records, records):
        for field in ("exit", "stdout", "stderr"):
            if before[field] != after[field]:
                lines.append(f"{field} differs: gjc {' '.join(after['argv'])}")
    if len(parent_records) != len(records):
        lines.append(f"command count differs: {len(parent_records)} -> {len(records)}")
    for name in sorted(parent_files.keys() | files.keys()):
        if name not in files or name not in parent_files:
            lines.append(f"only in {'the parent' if name in parent_files else 'this tree'}: {name}")
        elif parent_files[name] != files[name]:
            lines.append(f"file differs: {name}")
    return lines


@contextlib.contextmanager
def checkout(parent: str, scratch: Path):
    """`parent` if it is a directory, else a detached git worktree of the
    revision `parent` in `scratch`, removed when the block ends."""
    if Path(parent).is_dir():
        yield Path(parent)
        return
    tree = scratch / "tree"
    if subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(tree), parent]).returncode:
        raise SystemExit(f"{parent} is neither a directory nor a git revision")
    try:
        yield tree
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout (holds src/gjc) or git revision to compare against")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as tmp:
        (Path(tmp) / "parent").mkdir()
        (Path(tmp) / "change").mkdir()
        with checkout(args.parent, Path(tmp)) as parent_tree:
            parent = outputs(parent_tree, Path(tmp) / "parent")
        change = outputs(ROOT, Path(tmp) / "change")
    lines = differences(parent, change)
    for line in lines:
        print(line)
    print(f"{len(change[0])} commands, {len(change[1])} files: {len(lines)} difference(s)")
    return 1 if lines else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        run_commands(Path(sys.argv[2]), Path(sys.argv[3]))
    else:
        sys.exit(main())
