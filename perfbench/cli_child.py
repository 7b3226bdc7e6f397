"""Run one `coalflow` CLI command in this interpreter with layer spans
recorded, then write the spans to a JSON file.

    python3 perfbench/cli_child.py SPANS.json simulate --config ...
    python3 perfbench/cli_child.py --import-only

The second form prints the seconds a fresh interpreter takes to import
``coalflow.cli``.
"""

import sys
import time


def main(argv) -> int:
    from layers import CLI_TARGETS
    from spans import Tracer
    t0 = time.perf_counter()
    import coalflow.cli
    t1 = time.perf_counter()
    if argv[0] == "--import-only":
        print(t1 - t0)
        return 0
    tracer = Tracer()
    tracer.record("cli.import", t0, t1)
    tracer.install(CLI_TARGETS)
    try:
        return coalflow.cli.main(argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
