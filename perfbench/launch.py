"""Run one ``trotterlab`` command in this process, as the console script would.

    python3 perfbench/launch.py RECORD.json [--trace RUN_ID] [--warmup] -- <cli args>

The CLI arguments are those of ``trotterlab <command> --config FILE ...``.
Before handing them to ``trotterlab.cli.main``, the launcher imports the CLI
and parses the config once, then notes the monotonic clock: the parent
subtracts its own clock reading from before the spawn to get the set-up time.
With ``--trace`` every binding in ``tracer.BINDINGS`` is wrapped first and the
spans are written to the record at exit. ``--warmup`` stops after set-up;
it fills the bytecode and file caches before timed runs. The exit code is the
CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, None when it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    record_path = Path(own[0])
    run_id = own[own.index("--trace") + 1] if "--trace" in own else None

    from trotterlab import cli

    config = cli_args[cli_args.index("--config") + 1]
    cli.parse_config(Path(config).read_text(), command=cli_args[0])
    record = {"setup_mark": time.monotonic()}
    if "--warmup" in own:
        record["blas_threads"] = blas_threads()
        record_path.write_text(json.dumps(record))
        return 0

    if run_id is None:
        code = cli.main(cli_args)
    else:
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install()
        code = tracer.root(cli.main, cli_args)
        record["trace"] = tracer.dump()
    record_path.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
