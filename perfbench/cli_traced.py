"""Run one romforge CLI call with the benchmark's spans installed.

    python3 perfbench/cli_traced.py SPANS_JSON ARG...

behaves as ``python -m romforge.cli ARG...`` (with ``src`` on PYTHONPATH) and
also writes SPANS_JSON: the spans, the seconds spent importing
``romforge.cli`` and the seconds spent in its ``main()``.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    import romforge.cli
    import_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install()
    started = time.perf_counter()
    code = tracer.call("cli.main", romforge.cli.main, argv)
    main_s = time.perf_counter() - started
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "main_s": main_s,
                   "spans": tracer.spans, "absent": sorted(tracer.absent)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
