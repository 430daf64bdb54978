"""Loading the program under test and the one warm-up op of each workload.

Kept free of heavy imports: ``probe.py`` times ``import besselsum`` plus
the warm-up op in a fresh interpreter, and anything this module pulls in
beyond numpy would be billed to set-up.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: environment variables that pin BLAS / OpenMP pools to one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout does not hold an importable ``src/besselsum``."""


def load_besselsum():
    """Import ``besselsum`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "besselsum" / "__init__.py").is_file():
        raise ProgramMissing(f"no besselsum package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import besselsum  # noqa: PLC0415 - timed by the caller
    import besselsum.cli  # noqa: F401,PLC0415

    if Path(besselsum.__file__).resolve().parent != (SRC / "besselsum").resolve():
        raise ProgramMissing(f"besselsum imported from {besselsum.__file__}, not {SRC}")
    return besselsum


def run_cli(bs, argv) -> tuple[int, str]:
    """``besselsum.cli.main(argv)`` in this process, stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = bs.cli.main(list(argv))
    return code, out.getvalue()


def warm_up(bs, workload: str) -> None:
    """One op of the workload on a fixed input, the same for every seed."""
    pi = math.pi
    if workload == "panel_sweep":
        spec = bs.make_spec(2, (0.0, 1.0, 2.0), (pi / 16, pi / 16, 1.0))
        bs.cli.run_sweep(spec, 2, [3.0], terms=10, t_max=10.0)
    elif workload == "deep_sum":
        bs.evaluate(bs.make_spec(0, (0.5, 1.5), (pi / 16, 3.0)), terms=10**6)
    elif workload == "tol_corpus":
        bs.evaluate(bs.make_spec(0, (0.5, 1.5), (0.2, 1.0)), tol=1e-6, m_max=10**5)
    elif workload == "cli_cold":
        run_cli(bs, ["validate", "--nu", "0.5,1.5", "--a", "pi/16,1.0"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
