"""Child-process entry points of the benchmark.

    python bench/probe.py setup <workload>
        time ``import besselsum`` plus the workload's warm-up op in this
        fresh interpreter; print ``{"import_s": ..., "setup_s": ...}``.
    python bench/probe.py cli <spans.json> <besselsum argv...>
        run ``besselsum.cli.main(argv)`` with the tracer installed and write
        the spans (``import`` included) to ``spans.json``; exit with the
        command's exit code.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import ops  # noqa: E402


def setup(workload: str) -> int:
    bs = ops.load_besselsum()
    t_import = time.perf_counter()
    ops.warm_up(bs, workload)
    t_setup = time.perf_counter()
    print(json.dumps({"import_s": t_import - _T0, "setup_s": t_setup - _T0}))
    return 0


def traced_cli(spans_path: str, argv: list[str]) -> int:
    import tracer as tracing  # noqa: PLC0415 - stdlib only

    tracer = tracing.Tracer()
    tracer.begin("cli.import", 0)
    bs = ops.load_besselsum()
    tracer.end()
    tracer.install()
    try:
        code = bs.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
