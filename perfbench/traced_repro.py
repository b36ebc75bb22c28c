"""Run the ``repro`` CLI with every layer traced.

Usage: ``python3 perfbench/traced_repro.py DUMP_DIR REPRO_ARGS...``

Times ``import repro.cli``, installs :class:`tracer.Tracer` and calls
``repro.cli.main(REPRO_ARGS)``.  This process and each forked pool worker
write their records to ``DUMP_DIR/<pid>.json``; :func:`tracer.load_dumps`
merges them.  The exit code is the CLI's.
"""

import sys
import time

from tracer import Tracer


def main() -> int:
    dump_dir, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - start
    tracer = Tracer(dump_dir).install()
    tracer.import_s = import_s
    try:
        return repro.cli.main(argv)
    finally:
        tracer.dump()


if __name__ == "__main__":
    raise SystemExit(main())
