"""Importing the CLI loads no top-level module beyond a pinned footprint.

The footprint is what the package's own standard-library imports load on
the running interpreter, so a new import that drags in further modules (and
start-up time with them) fails here.  Dropping a module is allowed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the standard-library modules the package imports directly
STDLIB_IMPORTS = (
    "__future__ argparse bisect collections dataclasses enum fractions functools "
    "itertools json math operator os random re sys traceback"
).split()

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
