"""Run polyslope's command line in this process and time cli.main.

    python3 perfbench/cli_launcher.py RECORD SPANS ARGS...

Writes {"main_s": seconds inside cli.main} to RECORD.  Unless SPANS is "-",
the traced functions are wrapped first (tracer.py) and their spans written
to SPANS.  Exits with cli.main's exit code.
"""

import json
import sys
import time

import tracer


def main() -> int:
    record, spans, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from polyslope import cli

    trace = None
    if spans != "-":
        trace = tracer.Tracer()
        trace.op = 0
        tracer.install(trace)
    begin = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        main_s = time.perf_counter() - begin
        with open(record, "w", encoding="utf-8") as handle:
            json.dump({"main_s": main_s}, handle)
        if trace is not None:
            tracer.write(trace.spans, spans)


if __name__ == "__main__":
    sys.exit(main())
