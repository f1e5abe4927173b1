"""`python -m cmintersect ARGS` with per-layer spans, for traced CLI runs.

    python3 perfbench/cli_probe.py QUERY_ID SPAN_OFFSET SPANS_PATH RESULT_PATH ARGS...

Times `import cmintersect.cli`, installs the tracer, calls `cli.main(ARGS)`
(its stdout is the CLI's stdout), restores the library, appends the spans
to SPANS_PATH with ids shifted by SPAN_OFFSET, writes the per-layer
totals to RESULT_PATH and exits with the CLI's exit code.
"""

import json
import sys
from time import perf_counter

from tracing import Tracer
from worker import check_source


def main() -> int:
    query, offset, spans_path, result_path, *argv = sys.argv[1:]
    t0 = perf_counter()
    import cmintersect.cli
    import_s = perf_counter() - t0
    check_source(cmintersect)
    tracer = Tracer()
    tracer.query = int(query)
    tracer.install()
    try:
        code = cmintersect.cli.main(argv)
    finally:
        tracer.restore()
    sys.stdout.flush()
    cache = cmintersect.integers.factorize.cache_info()
    with open(spans_path, "a") as fh:
        count = tracer.write(fh, int(offset))
    with open(result_path, "w") as fh:
        json.dump({"import_s": import_s, "totals": tracer.layer_totals(),
                   "cache": [cache.hits, cache.misses], "spans": count}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
