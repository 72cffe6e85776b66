"""Importing the CLI loads no top-level module beyond a pinned footprint.

The footprint is what the package's own standard-library imports load on
the running interpreter, so a new import that drags in further modules (and
start-up time with them) fails here.  Dropping a module is allowed.  The
record classes are declared without ``dataclasses``, whose import chain
(``inspect``, ``ast``, ``dis``, ``tokenize``, ...) would dominate the CLI's
start-up; the last test pins the behaviour they keep.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from zonopark.scalars import EpsRational, parse_scalar
from zonopark.tilting import WeightTable
from zonopark.treecount import MultiGraph
from zonopark.verify import CheckResult
from zonopark.zonotope import SupportBounds, ZonotopeSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the standard-library modules the package imports directly
STDLIB_IMPORTS = (
    "__future__ argparse bisect collections enum fractions functools "
    "itertools json math operator os random re sys"
).split()

# heavy modules that a start-up must not load; `traceback` is imported
# only when a command fails with an internal error
NEVER_AT_START_UP = {"dataclasses", "inspect", "ast", "dis", "traceback"}

REPORT = "import sys; print(' '.join(sorted({name.split('.')[0] for name in sys.modules})))"


def _top_level_modules(imports: str) -> set[str]:
    """The top-level modules loaded by a fresh ``python -S`` running ``imports``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", f"{imports}\n{REPORT}"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(out.split())


def test_importing_the_cli_loads_only_the_pinned_footprint():
    loaded = _top_level_modules("import zonopark.cli")
    allowed = _top_level_modules(f"import {', '.join(STDLIB_IMPORTS)}")
    assert loaded - allowed == {"zonopark"}


def test_importing_the_cli_loads_no_introspection_modules():
    assert _top_level_modules("import zonopark.cli") & NEVER_AT_START_UP == set()


TAU = parse_scalar("1/3")

# (class, the fields of one record, the fields of a record unequal to it)
RECORDS = [
    (ZonotopeSpec, dict(m=2, n=3, tau=TAU), dict(m=2, n=3, tau=parse_scalar("1/3+eps"))),
    (
        SupportBounds,
        dict(k=2, lower=EpsRational(Fraction(-4, 3)), upper=EpsRational(Fraction(14, 3))),
        dict(k=2, lower=EpsRational(Fraction(-4, 3)), upper=EpsRational(Fraction(17, 3))),
    ),
    (
        WeightTable,
        dict(m=2, n=2, t=Fraction(1, 2), tau=TAU, weights=((1, 0),)),
        dict(m=2, n=2, t=Fraction(1, 2), tau=TAU, weights=((0, 1),)),
    ),
    (MultiGraph, dict(mult=((0, 1), (1, 0))), dict(mult=((0, 2), (2, 0)))),
    (
        CheckResult,
        dict(name="table_size", m=2, n=3, ok=True),
        dict(name="table_size", m=2, n=3, ok=False),
    ),
]


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=[case[0].__name__ for case in RECORDS])
def test_record_classes_keep_their_behaviour(cls, fields, other):
    record = cls(**fields)
    assert all(getattr(record, name) == value for name, value in fields.items())
    twin = cls(*fields.values())
    assert record == twin and hash(record) == hash(twin)
    assert record != cls(**other)
    if cls is CheckResult:
        assert record.detail == ""
        return
    # the other four were frozen dataclasses
    derived = ("lo_ceil", "admissible") if cls is ZonotopeSpec else ()
    for name in (*fields, *derived):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    if cls is ZonotopeSpec:
        # equality, hashing and the repr read (m, n, tau) only, not the
        # derived fields or the cached scan; tau is stored as an EpsRational
        record.representatives
        assert record == cls(2, 3, Fraction(1, 3)) and hash(record) == hash(twin)
        assert repr(record) == "ZonotopeSpec(m=2, n=3, tau=EpsRational(Fraction(1, 3), 0))"
