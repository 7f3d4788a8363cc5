"""The benchmark traces public functions of `gjc` by name; each must exist.

`perfbench/tracing.py` is loaded by path and only its TARGETS table is
read: no wrapper is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("gjc_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("module, path, prefix", TARGETS, ids=[t[2] for t in TARGETS])
def test_target_resolves(module, path, prefix):
    # the same lookup as tracing.install
    head, _, method = path.partition(".")
    owner = getattr(importlib.import_module(module), head)
    if method:
        assert callable(vars(owner)[method])
    else:
        assert callable(owner)
