"""Command-line surface: list models, compute spectra, run evolutions,
verify the operator algebra, and emit figure-ready CSV/JSON.

Every output file starts with '#'-prefixed header lines carrying a format
version and the full run manifest, so any result can be reproduced from
the file alone.  Floats are written as '%.16e' writes them, 17
significant digits in scientific notation, computed in numpy a block of
rows at a time; identical runs give identical bytes, though the oracle's
columns may differ in the last bits between BLAS builds or thread counts.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import io
import itertools
import json
import math
import os
import pathlib
import re
import stat
import sys
import tempfile

import numpy as np

from . import analytic, oracle
from .algebra import verify_relations
from .errors import ConfigError, TruncationError
from .model import DEFAULT_N_MAX, load_model, registry, registry_model
from .states import QubitBosonState, coherent_state, fock_state

FORMAT_VERSION = "gjc-csv-1"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY_FAILED = 2
EXIT_TRUNCATION = 3

# Rows per text piece of a CSV: the table is formatted and written one
# block at a time, so the text in memory does not grow with the table.
CSV_BLOCK_ROWS = 256

# The decimal exponents of the nonzero finite doubles, and Veltkamp's
# splitting constant 2^27 + 1 for an error-free product.
_E_MIN, _E_MAX = -324, 308
_SPLIT = 134217729.0


def _manifest(args) -> dict:
    """Everything needed to reproduce one command, embedded in each output:
    every option of the parsed command line except --out, and the command
    as `mode`."""
    doc = {k: v for k, v in vars(args).items() if v is not None and k not in ("command", "out")}
    doc["mode"] = args.command
    return doc


class _Device(io.FileIO):
    """A FIFO or device --out, whose broken pipe carries its name: stdout's has none."""

    def write(self, data):
        try:
            return super().write(data)
        except BrokenPipeError as exc:
            exc.filename = self.name
            raise


@contextlib.contextmanager
def _output(path):
    """The command's one destination, opened before the work: stdout, also for
    an --out that is stdout's own file, or else --out by what os.stat finds
    there, following links.  A directory is refused; any other non-regular
    file (a pipe, FIFO or device) is written through; a missing or regular
    target gets a temporary file beside its resolved path with open(path,
    "w")'s mode, moved over it when the command returns and removed on an
    exception.  An OSError of either is one line; a failed stdout is then
    pointed at os.devnull."""
    where = f"--out {path}" if path else "to stdout"
    try:
        try:
            found = os.stat(path) if path else None
        except FileNotFoundError:
            found = None
        with contextlib.suppress(AttributeError, OSError, ValueError):  # an in-process stdout has no descriptor
            path = None if found and os.path.samestat(found, os.fstat(sys.stdout.fileno())) else path
        if not path:
            yield sys.stdout
        elif found and stat.S_ISDIR(found.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        elif found and not stat.S_ISREG(found.st_mode):
            with io.TextIOWrapper(io.BufferedWriter(_Device(path, "w")), newline="\n") as sink:
                yield sink
        else:
            target = os.path.realpath(path)
            os.umask(umask := os.umask(0))  # the umask is read by setting it
            mode = found.st_mode & 0o7777 if found else 0o666 & ~umask
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".gjc-", suffix=".tmp")
            try:
                with os.fdopen(fd, "w", newline="\n") as sink:
                    os.chmod(tmp, mode)
                    yield sink
                os.replace(tmp, target)
            except BaseException:
                os.unlink(tmp)
                raise
        where = "to stdout"  # the flush of verify's table
        sys.stdout.flush()
    except OSError as exc:
        # a broken pipe is stdout's, also while verify prints beside --out,
        # unless _Device named the --out FIFO in it
        where = "to stdout" if isinstance(exc, BrokenPipeError) and exc.filename is None else where
        if where == "to stdout":  # so that the exit's flush of its buffer cannot fail again
            with contextlib.suppress(AttributeError, OSError, ValueError):  # an in-process stdout
                with open(os.devnull, "w") as null:
                    os.dup2(null.fileno(), sys.stdout.fileno())
        raise ConfigError(f"cannot write {where}: {exc.strerror or exc}") from None


@functools.cache
def _powers_of_ten():
    """10^(16-E) = (hi + lo) * 2^q for E = _E_MAX + 1 down to _E_MIN - 1,
    exact from Python ints: hi near [1, 2) with its Veltkamp halves, lo the
    nearest double of the rest.  As rows (hi, hi_hi, hi_lo, lo), and q."""
    rows = []
    for p in range(15 - _E_MAX, 18 - _E_MIN):
        q = math.floor(p * math.log2(10))
        num, den = 10 ** max(p, 0) << max(-q, 0), 10 ** max(-p, 0) << max(q, 0)
        h, d = (num / den).as_integer_ratio()
        rows.append((h / d, (num * d - h * den) / (den * d), q))
    hi, lo, q = map(np.array, zip(*rows))
    hi_hi = hi * _SPLIT - (hi * _SPLIT - hi)
    return np.stack([hi, hi_hi, hi - hi_hi, lo]), q


@functools.cache
def _ascii_words():
    """The uint32 words of a value's 28-byte slot: ',' '-' d '.', the 16
    digits after the point as four words "0000" to "9999", then 'e', the
    exponent's sign and 3 digits, a newline and 2 pad bytes.  A NUL stands
    for what a value lacks: the ',' before a row's first value, the '-'
    without the sign bit, the exponent's hundreds digit below 100, the
    newline after all but a row's last value.  As (the digit words, the
    first word at d + 10 sign + 20 (no ','), the last two at E - _E_MIN +
    633 (newline))."""
    digit = np.arange(48, 58, dtype=np.uint8)
    digits = np.stack(np.broadcast_arrays(*np.ix_(digit, digit, digit, digit)), axis=-1)
    heads = "".join(f"{lead}{sign}{d}." for lead in ",\0" for sign in "\0-" for d in range(10))
    tails = "".join(
        f"e{'-+'[e >= 0]}{abs(e) // 100 if abs(e) >= 100 else chr(0)}{abs(e) % 100:02d}{end}\0\0"
        for end in "\0\n"
        for e in range(_E_MIN, _E_MAX + 1)
    )
    words = [np.frombuffer(text.encode("ascii"), np.uint32) for text in (heads, tails)]
    return digits.reshape(-1, 4).view(np.uint32).ravel(), words[0], words[1].reshape(-1, 2).T.copy()


def _scaled(a, E, table, q):
    """y = a * 10^(16-E) as a double-double (yh, yl): Dekker's product of
    x = a * 2^q, split by Veltkamp's method, with the table's hi + lo.  x is
    exact, subnormal a too, as x = y / hi is within a factor 100 of 10^16;
    an E past the table's ends takes the end, where no double settles."""
    p = _E_MAX + 1 - E
    h, h_hi, h_lo, lo = table.take(p, axis=1, mode="clip")
    x = np.ldexp(a, q.take(p, mode="clip"))
    x_hi = x * _SPLIT
    x_hi -= x_hi - x
    x_lo = x - x_hi
    yh = x * h
    yl = ((x_hi * h_hi - yh) + x_hi * h_lo + x_lo * h_hi) + x_lo * h_lo + x * lo
    return yh, yl


def _outside(yh, yl):
    """+1 where yh + yl >= 10^17, -1 where it is below 10^16, else 0."""
    return np.subtract((yh - 1e17) + yl >= 0, (yh - 1e16) + yl < 0, dtype=np.int64)


def _digits(a):
    """The 17 significant digits N and the exponent E of each finite a >= 0
    as '%.16e' writes them, and the values it must leave to '%': (N, E,
    unsure).  0 has N = E = 0; otherwise N is in [10^16, 10^17).

    y = a * 10^(16-E), with E = floor(log10 a), is a double-double yh + yl
    within 1e-14 of the exact value (_scaled); E moves by one, at most
    twice, while y is outside [10^16, 10^17).  N = yh + rint(yl), as
    yh >= 2^53 is an integer, and N = 10^17 carries to 10^16 at E + 1.  A
    value whose E does not settle, or whose y is within 1e-9 of a rounding
    half, is unsure: an exact tie rounds half to even on the exact binary
    value, which no error bound tells from a near one.
    """
    table, q = _powers_of_ten()
    zero = a == 0
    a = np.where(zero, 2.0, a)
    E = np.floor(np.log10(a)).astype(np.int64)
    yh, yl = _scaled(a, E, table, q)
    step = _outside(yh, yl)
    moved = step.nonzero()[0]
    for _ in range(2):
        if moved.size:
            E[moved] += step[moved]
            yh[moved], yl[moved] = _scaled(a[moved], E[moved], table, q)
            step[moved] = _outside(yh[moved], yl[moved])
            moved = moved[step[moved] != 0]
    rounded = np.rint(yl)
    unsure = np.abs(yl - rounded) > 0.5 - 1e-9
    unsure[moved] = True
    N = yh.astype(np.int64) + rounded.astype(np.int64)
    carry = N == 10**17
    E += carry
    N[carry] = 10**16
    N[zero] = 0
    return N, E, unsure


def _divide(n, d):
    """n // d and n % d of integers n >= 0.  numpy's floor division by a
    scalar has a fast loop that np.divmod lacks: two divisions of a 256 x 9
    int64 block take 11 us this way against 19-22 us with np.divmod
    (2-core x86-64 VM, numpy 2.4)."""
    quotient = n // d
    return quotient, n - quotient * d


def _csv_text(values, labels=None):
    """The CSV lines of a block of rows, a 2-D array, as one string: for
    each row, its label words if `labels` holds them (a (rows, width) uint32
    array of `label,` padded with NULs to whole words), then a slot of
    _ascii_words per column, and no NUL.  A labelled row's first column, an
    integer below 2^53, keeps only its d and its E digits after the point.
    The unsure values of _digits take their digits and exponent from
    '%.16e' itself, one value at a time."""
    digits, heads, tails = _ascii_words()
    rows, columns = values.shape
    N, E, unsure = _digits(np.abs(values).ravel())
    for i in unsure.nonzero()[0].tolist():
        mantissa, power = ("%.16e" % abs(values.flat[i])).split("e")
        N[i], E[i] = int(mantissa.replace(".", "")), int(power)
    N, E = N.reshape(rows, columns), E.reshape(rows, columns)
    width = 0 if labels is None else labels.shape[1]
    words = np.empty((rows, width + 7 * columns), np.uint32)
    slots = words[:, width:]
    first, rest = _divide(N, 10**16)
    upper, lower = _divide(rest, 10**8)
    first += 10 * np.signbit(values)
    first[:, 0] += 20
    slots[:, 0::7] = heads[first]
    for group, part in enumerate(_divide(upper, 10**4) + _divide(lower, 10**4)):
        slots[:, 1 + group :: 7] = digits[part]
    end = E - _E_MIN
    end[:, -1] += _E_MAX - _E_MIN + 1
    slots[:, 5::7], slots[:, 6::7] = tails.take(end, axis=1)
    if width:
        words[:, :width] = labels
        number = slots[:, :7].view(np.uint8)
        number[:, 3] = number[:, 20:25] = 0
        number[:, 4:20][np.arange(16) >= E[:, :1]] = 0
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _csv_rows(columns, labels=()):
    """The lines of equal-length 1-D columns as text pieces of at most
    CSV_BLOCK_ROWS lines, each stacked from its rows of every column alone.
    `labels`, a list of (label, rows) runs over all the rows in order,
    makes each row start `label,n_lower,`, n_lower being its first column."""
    if labels:
        width = -(-max(len(label) + 1 for label, _ in labels) // 4)
        text = "".join(f"{label},".ljust(4 * width, "\0") for label, _ in labels)
        words = np.frombuffer(text.encode("ascii"), np.uint32).reshape(-1, width)
        ends = list(itertools.accumulate(rows for _, rows in labels))
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = np.column_stack([column[start : start + CSV_BLOCK_ROWS] for column in columns])
        if labels:
            run = np.searchsorted(ends, np.arange(start, start + block.shape[0]), side="right")
            yield _csv_text(block, words[run])
        else:
            yield _csv_text(block)


def _write_csv(sink, manifest: dict, header: str, columns, labels=()) -> None:
    """Header lines, the column row `header` and one line per row of the
    equal-length 1-D `columns`, labelled by the (label, rows) runs of
    `labels`, written to `sink` CSV_BLOCK_ROWS rows at a time by _csv_rows:
    each value as '%.16e' writes it."""
    manifest_json = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    sink.write(f"# format: {FORMAT_VERSION}\n# manifest: {manifest_json}\n{header}\n")
    sink.writelines(_csv_rows(columns, labels))


def _resolve_model(args):
    """The spec of --model or --config, and the one --nmax >= k check."""
    if args.config is not None:
        spec = load_model(pathlib.Path(args.config))
    else:
        spec = registry_model(args.model)
    if args.n_max < spec.k:
        raise ConfigError(f"--nmax {args.n_max} must be >= k={spec.k}")
    return spec


def parse_initial(descriptor: str, n_max: int) -> QubitBosonState:
    """Build the initial state from 'fock:QUBIT:N' or 'coherent:QUBIT:ALPHA';
    fock_state and coherent_state check the values."""
    parts = descriptor.split(":")
    if len(parts) != 3:
        raise ConfigError(
            f"initial state must be 'fock:QUBIT:N' or 'coherent:QUBIT:ALPHA', got {descriptor!r}"
        )
    kind, qubit, value = parts
    if kind == "fock":
        try:
            n = int(value)
        except ValueError:
            raise ConfigError(f"Fock index must be an integer, got {value!r}") from None
        return fock_state(qubit, n, n_max)
    if kind == "coherent":
        try:
            alpha = complex(value)
        except ValueError:
            raise ConfigError(f"alpha must be a (complex) number, got {value!r}") from None
        return coherent_state(qubit, alpha, n_max)
    raise ConfigError(f"initial state kind must be 'fock' or 'coherent', got {kind!r}")


def cmd_list(_args, sink) -> int:
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
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip(), file=sink)
    return EXIT_OK


def cmd_spectrum(args, sink) -> int:
    spec = _resolve_model(args)
    model_table = spec.validate_range(args.n_max)
    dark = analytic.dark_levels(spec, model_table)
    m = analytic.manifolds(spec, model_table)
    lower, zeros, nb = np.arange(spec.k), np.zeros(spec.k), m.beta.size
    dark_rows = (lower, lower - spec.k / 2.0, zeros, zeros, dark, dark)
    manifold_rows = (np.arange(nb), m.n_total, m.beta, m.rabi_frequency, m.e_plus, m.e_minus)
    columns = list(map(np.concatenate, zip(dark_rows, manifold_rows)))
    labels = [("dark", spec.k), ("manifold", nb)]
    _write_csv(sink, _manifest(args), "kind,n_lower,N,beta,Omega,E_plus,E_minus", columns, labels)
    return EXIT_OK


def cmd_evolve(args, sink) -> int:
    spec = _resolve_model(args)
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    if not math.isfinite(args.t_max):
        raise ConfigError(f"--tmax must be finite, got {args.t_max!r}")
    initial = parse_initial(args.initial, args.n_max)
    times = np.linspace(0.0, args.t_max, args.points)

    columns = ["t", "sigma_z", "n_mean", "x_mean", "y_mean"]
    if args.engine in ("analytic", "both"):
        data = analytic.trace_observables(spec, initial, times)
    if args.engine in ("oracle", "both"):
        h = oracle.assemble(spec, args.n_max)
        oracle_data = oracle.trace_observables(h, initial, times)
        if args.engine == "oracle":
            data = oracle_data
    if args.engine == "both":
        columns += ["resid_sigma_z", "resid_n_mean", "resid_x_mean", "resid_y_mean"]
        data += tuple(np.abs(a - b) for a, b in zip(data, oracle_data))
    # the engines refuse an overflowing model, so a non-finite value is t*E
    if not all(np.isfinite(column).all() for column in data):
        raise ConfigError(f"non-finite result: t*E overflows at --tmax {args.t_max!r} with --nmax {args.n_max}")
    _write_csv(sink, _manifest(args), ",".join(columns), [times, *data])
    return EXIT_OK


def cmd_verify(args, sink) -> int:
    spec = _resolve_model(args)
    if not 0.0 <= args.threshold < math.inf:
        raise ConfigError(f"--threshold must be finite and >= 0, got {args.threshold!r}")
    if args.guard is None:
        args.guard = 2 * spec.k
    residuals = verify_relations(spec, args.n_max, args.guard)
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
            "manifest": _manifest(args),
            "residuals": residuals,
            "threshold": args.threshold,
            "pass": ok,
        }
        sink.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line with ConfigError instead of exiting 2,
    and reads any word that starts like a negative number (`-1e-3`, `-.5`) as
    a value, so that the option's own check judges it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call of main."""
    parser = _Parser(
        prog="gjc",
        description="Generalized Jaynes-Cummings models: closed-form dynamics, "
        "operator-algebra verification, and a brute-force cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the bundled reference models")

    def add_model_args(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--model", help="name of a bundled model (see 'gjc list')")
        source.add_argument("--config", help="path to a JSON model document")
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
    p_evo.add_argument(
        "--tmax",
        dest="t_max",
        metavar="TMAX",
        type=float,
        default=200.0,
        help="final time in 1/omega0",
    )
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
    try:
        args = build_parser().parse_args(argv)
        # An overflowed value is reported once, as a refused CSV or a failed
        # residual, rather than as a stream of numpy warnings.
        with _output(getattr(args, "out", None)) as sink:
            with np.errstate(over="ignore", invalid="ignore"):
                return _HANDLERS[args.command](args, sink)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:
        print(f"error: numerical overflow at this cutoff: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION


if __name__ == "__main__":
    sys.exit(main())
