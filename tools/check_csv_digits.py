"""Check the CSV writer's digits against Python's own '%.16e'.

    python3 tools/check_csv_digits.py

Writes the finite ones of COUNT random 64-bit patterns drawn with SEED
and every value of `edge_values()` through `gjc.cli._csv_rows`, one value
per line, CHUNK values at a time, and compares each line with
`'%.16e' % value`.  Prints the first mismatches, then one summary line;
the exit code is 1 on any mismatch and 0 otherwise.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from gjc import cli  # noqa: E402

COUNT = 2 * 10**7
SEED = 0
CHUNK = 10**5
SHOWN = 20


def edge_sets() -> dict:
    """Named sets of edge values, each of both signs: 0.0; the smallest
    subnormal, the smallest normal and the largest double; every power of
    ten from 1e-323 to 1e308 and the two doubles on either side of it; the
    17- and 18-digit near-ties 99999999999999995e-k, 100000000000000005e-k
    and 12345678901234565e-k at every exponent k that gives a nonzero finite
    double; and exact ties, doubles of 18 significant digits ending in 5."""
    finfo = np.finfo(np.float64)
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    around = [powers]
    up = down = powers
    for _ in range(2):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        around += [up, down]
    near = np.array(
        [float(f"{m}e{-k}") for m in ("99999999999999995", "100000000000000005", "12345678901234565")
         for k in range(-292, 346)]
    )
    ties = [j + f for j in (10**15, 1278675322477191, 2**51 - 1) for f in (0.25, 0.75)]
    ties += [j + f / 8 for j in (10**14, 123456789012345) for f in (1, 3, 5, 7)]
    sets = {
        "zero": [0.0],
        "extremes": [5e-324, finfo.tiny, finfo.max],
        "powers-of-ten": np.concatenate(around),
        "near-ties": near[(near > 0) & np.isfinite(near)],
        "exact-ties": ties,
    }
    return {name: np.concatenate([values, np.negative(values)]) for name, values in sets.items()}


def edge_values() -> np.ndarray:
    """Every value of edge_sets(), as one array."""
    return np.concatenate(list(edge_sets().values()))


def mismatches(values: np.ndarray) -> list:
    """(value, written, '%.16e' % value) for each value whose line differs."""
    written = "".join(cli._csv_rows([values]))
    expected = ("%.16e\n" * values.size) % tuple(values.tolist())
    if written == expected:
        return []
    pairs = zip(values.tolist(), written.splitlines(), expected.splitlines())
    return [(value, line, want) for value, line, want in pairs if line != want]


def main() -> int:
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    edges = edge_values()
    found, checked = mismatches(edges), edges.size
    for done in range(0, COUNT, CHUNK):
        bits = rng.integers(0, 2**64, size=min(CHUNK, COUNT - done), dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        found += mismatches(values)
        checked += values.size
    for value, line, want in found[:SHOWN]:
        print(f"{value!r}: wrote {line!r}, '%.16e' gives {want!r}")
    print(f"{checked} values, {len(found)} mismatch(es), {time.perf_counter() - start:.1f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
