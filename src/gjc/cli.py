"""Command-line surface: list models, compute spectra, run evolutions,
verify the operator algebra, and emit figure-ready CSV/JSON.

Every output file starts with '#'-prefixed header lines carrying a format
version and the full run manifest, so any result can be reproduced from
the file alone.  Floats are written in fixed 17-significant-digit
scientific notation to keep outputs diffable across runs and machines.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from . import analytic, oracle
from .algebra import verify_relations
from .errors import ConfigError, TruncationError
from .model import DEFAULT_N_MAX, load_model, registry, registry_model
from .states import QubitBosonState, coherent_state, fock_state, observables

FORMAT_VERSION = "gjc-csv-1"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY_FAILED = 2
EXIT_TRUNCATION = 3


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one command, embedded in each output."""

    mode: str
    model: str | None = None
    config: str | None = None
    n_max: int | None = None
    guard: int | None = None
    threshold: float | None = None
    initial: str | None = None
    t_max: float | None = None
    points: int | None = None
    engine: str | None = None

    def to_json(self) -> str:
        doc = {k: v for k, v in asdict(self).items() if v is not None}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gjc-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(out, manifest: RunManifest, columns: str, table, labels=None) -> None:
    """Header lines, the column row and one line per row of `table` (after
    its label, if any), written atomically to `out` or else to stdout.

    A non-finite value means the model overflowed at this cutoff; nothing
    is written then.
    """
    table = np.asarray(table, dtype=float)
    if not np.isfinite(table).all():
        raise ConfigError(
            f"non-finite result: the model overflows at n_max={manifest.n_max}"
        )
    row = ",".join(["%.16e"] * table.shape[1])
    lines = [row % tuple(values) for values in table.tolist()]
    if labels is not None:
        lines = [f"{label},{line}" for label, line in zip(labels, lines)]
    header = [f"# format: {FORMAT_VERSION}", f"# manifest: {manifest.to_json()}", columns]
    text = "\n".join(header + lines) + "\n"
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _resolve_model(args):
    if getattr(args, "config", None):
        return load_model(args.config, n_max=args.n_max), None, args.config
    name = getattr(args, "model", None)
    if not name:
        raise ConfigError("either --model NAME or --config PATH is required")
    return registry_model(name), name, None


def parse_initial(descriptor: str, n_max: int) -> QubitBosonState:
    """Build the initial state from 'fock:QUBIT:N' or 'coherent:QUBIT:ALPHA'."""
    parts = descriptor.split(":")
    if len(parts) != 3:
        raise ConfigError(
            f"initial state must be 'fock:QUBIT:N' or 'coherent:QUBIT:ALPHA', got {descriptor!r}"
        )
    kind, qubit, value = parts
    if qubit not in ("g", "e"):
        raise ConfigError(f"qubit level must be 'g' or 'e', got {qubit!r}")
    if kind == "fock":
        try:
            n = int(value)
        except ValueError:
            raise ConfigError(f"Fock index must be an integer, got {value!r}") from None
        try:
            return fock_state(qubit, n, n_max)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "coherent":
        try:
            alpha = complex(value)
        except ValueError:
            raise ConfigError(f"alpha must be a (complex) number, got {value!r}") from None
        if not cmath.isfinite(alpha):
            raise ConfigError(f"alpha must be finite, got {value!r}")
        return coherent_state(qubit, alpha, n_max)
    raise ConfigError(f"initial state kind must be 'fock' or 'coherent', got {kind!r}")


def cmd_list(_args) -> int:
    rows = [("name", "fig", "k", "g", "f(n)", "F(n)", "G(n)")]
    for entry in registry():
        s = entry.spec
        rows.append(
            (
                entry.name,
                str(entry.figure),
                str(s.k),
                f"{s.g:g}",
                s.f.describe(),
                s.F.describe(),
                s.G.describe(),
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return EXIT_OK


def cmd_spectrum(args) -> int:
    spec, name, config = _resolve_model(args)
    if args.n_max < spec.k:
        raise ConfigError(f"--nmax {args.n_max} must be >= k={spec.k}")
    manifest = RunManifest(
        mode="spectrum", model=name, config=config, n_max=args.n_max
    )
    model_table = spec.validate_range(args.n_max)
    dark = analytic.dark_levels(spec, model_table)
    table = analytic.manifolds(spec, model_table)
    zeros = np.zeros(spec.k)
    rows = np.vstack(
        [
            np.column_stack([np.arange(spec.k) - spec.k / 2.0, zeros, zeros, dark, dark]),
            np.column_stack(
                [table.n_total, table.beta, table.rabi_frequency, table.e_plus, table.e_minus]
            ),
        ]
    )
    labels = [f"dark,{n}" for n in range(spec.k)]
    labels += [f"manifold,{n}" for n in range(table.beta.size)]
    _write_csv(args.out, manifest, "kind,n_lower,N,beta,Omega,E_plus,E_minus", rows, labels)
    return EXIT_OK


def cmd_evolve(args) -> int:
    spec, name, config = _resolve_model(args)
    if args.n_max < spec.k:
        raise ConfigError(f"--nmax {args.n_max} must be >= k={spec.k}")
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    if not math.isfinite(args.tmax):
        raise ConfigError(f"--tmax must be finite, got {args.tmax!r}")
    manifest = RunManifest(
        mode="evolve",
        model=name,
        config=config,
        n_max=args.n_max,
        initial=args.initial,
        t_max=args.tmax,
        points=args.points,
        engine=args.engine,
    )
    initial = parse_initial(args.initial, args.n_max)
    times = np.linspace(0.0, args.tmax, args.points)

    columns = ["t", "sigma_z", "n_mean", "x_mean", "y_mean"]
    if args.engine in ("analytic", "both"):
        data = analytic.trace_observables(spec, initial, times)
    if args.engine in ("oracle", "both"):
        h = oracle.assemble(spec, args.n_max)
        oracle_data = observables(*oracle.propagate(h, initial, times))
        if args.engine == "oracle":
            data = oracle_data
    if args.engine == "both":
        columns += ["resid_sigma_z", "resid_n_mean", "resid_x_mean", "resid_y_mean"]
        data += tuple(np.abs(a - b) for a, b in zip(data, oracle_data))
    _write_csv(args.out, manifest, ",".join(columns), np.column_stack([times, *data]))
    return EXIT_OK


def cmd_verify(args) -> int:
    spec, name, config = _resolve_model(args)
    if not math.isfinite(args.threshold):
        raise ConfigError(f"--threshold must be finite, got {args.threshold!r}")
    guard = args.guard if args.guard is not None else 2 * spec.k
    manifest = RunManifest(
        mode="verify",
        model=name,
        config=config,
        n_max=args.n_max,
        guard=guard,
        threshold=args.threshold,
    )
    residuals = verify_relations(spec, args.n_max, guard)
    if not all(map(math.isfinite, residuals.values())):
        raise ConfigError(f"non-finite residual: the model overflows at n_max={args.n_max}")
    worst = max(residuals.values())
    ok = worst <= args.threshold
    width = max(len(k) for k in residuals)
    for relation, residual in residuals.items():
        status = "ok" if residual <= args.threshold else "FAIL"
        print(f"{relation.ljust(width)}  {residual:.3e}  {status}")
    print(
        f"worst residual {worst:.3e} {'<=' if ok else '>'} threshold {args.threshold:g}"
        f" -> {'PASS' if ok else 'FAIL'}"
    )
    if args.out:
        report = {
            "manifest": json.loads(manifest.to_json()),
            "residuals": residuals,
            "threshold": args.threshold,
            "pass": ok,
        }
        _atomic_write(args.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call of main."""
    parser = argparse.ArgumentParser(
        prog="gjc",
        description="Generalized Jaynes-Cummings models: closed-form dynamics, "
        "operator-algebra verification, and a brute-force cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the bundled reference models")

    def add_model_args(p):
        p.add_argument("--model", help="name of a bundled model (see 'gjc list')")
        p.add_argument("--config", help="path to a JSON model document")
        p.add_argument(
            "--nmax",
            dest="n_max",
            type=int,
            default=DEFAULT_N_MAX,
            help=f"Fock-space cutoff (default {DEFAULT_N_MAX})",
        )

    p_spec = sub.add_parser("spectrum", help="manifold angles, frequencies and eigenvalues")
    add_model_args(p_spec)
    p_spec.add_argument("--out", help="output CSV path (default: stdout)")

    p_evo = sub.add_parser("evolve", help="time evolution of the observables")
    add_model_args(p_evo)
    p_evo.add_argument(
        "--initial",
        default="coherent:g:3.0",
        help="initial state, 'fock:QUBIT:N' or 'coherent:QUBIT:ALPHA' (default coherent:g:3.0)",
    )
    p_evo.add_argument("--tmax", type=float, default=200.0, help="final time in 1/omega0")
    p_evo.add_argument("--points", type=int, default=2001, help="number of grid points")
    p_evo.add_argument(
        "--engine",
        choices=("analytic", "oracle", "both"),
        default="analytic",
        help="'both' appends per-observable residual columns",
    )
    p_evo.add_argument("--out", help="output CSV path (default: stdout)")

    p_ver = sub.add_parser("verify", help="check every operator-algebra relation")
    add_model_args(p_ver)
    p_ver.add_argument(
        "--guard",
        type=int,
        default=None,
        help="top Fock levels excluded from identity checks (default 2k)",
    )
    p_ver.add_argument("--threshold", type=float, default=1e-10)
    p_ver.add_argument("--out", help="optional JSON report path")

    return parser


_HANDLERS = {
    "list": cmd_list,
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # An overflowed value is reported once, as a refused CSV or a failed
        # residual, rather than as a stream of numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            code = _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:
        print(f"error: numerical overflow at this cutoff: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    return code


if __name__ == "__main__":
    sys.exit(main())
