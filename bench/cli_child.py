"""Traced child process for the cli_files workload.

Times the package import, installs the tracer, runs ``semiphi.cli.main`` and
writes the import time and spans to SPAN_FILE before exiting with the CLI's
exit status.

Usage: python3 bench/cli_child.py SPAN_FILE COMMAND INPUT [cli options...]
"""

import json
import sys
import time


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import semiphi.cli

    import_ms = 1e3 * (time.perf_counter() - start)
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return semiphi.cli.main(argv)
    finally:
        with open(span_file, "w") as out:
            json.dump({"import_ms": import_ms, "spans": tracer.spans}, out)


if __name__ == "__main__":
    sys.exit(main())
