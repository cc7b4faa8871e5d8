"""Traced stand-in for the `wreathlin` console script.

Usage: ``python3 perfbench/verify_child.py verify --structure "S(5)"``

Times ``import wreathlin.cli``, installs the span wrappers, runs
``wreathlin.cli.main`` with the given arguments, and after its report prints
one line ``@@perfbench {json}`` with the spans and the pattern-cache counts.
"""

from __future__ import annotations

import json
import sys
import time

from spans import Recorder, Span, install

MARKER = "@@perfbench "


def main() -> int:
    rec = Recorder()
    start = time.perf_counter()
    import wreathlin.basis
    import wreathlin.cli

    rec.spans.append(Span("cli.import", start, time.perf_counter(), -1, "setup"))
    install(rec)
    try:
        code = wreathlin.cli.main(sys.argv[1:])
    finally:
        info = wreathlin.basis.pattern_of_structure.untraced.cache_info()
        payload = {"spans": [s.to_list() for s in rec.spans], "cache": [info.hits, info.misses]}
        sys.stdout.flush()
        print(MARKER + json.dumps(payload), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
