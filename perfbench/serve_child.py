"""``repro serve`` for the benchmark, traced when asked.

Starts the server through the public CLI entry point, on an ephemeral
loopback port with one worker process and the given cache directory.
With ``--trace 1`` the layer hooks are installed first, so the spans of
every request are recorded inside the server process.  When the server
has drained after SIGTERM, the script writes its peak memory (and the
spans, when traced) and exits with the server's exit code.

Usage (normally only ``run.py`` calls it)::

    python3 perfbench/serve_child.py --cache-dir DIR --stats FILE
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from checkout import OUT_DIR, import_repro
from tracer import Tracer, install

SPANS_FILE = OUT_DIR / "spans-serve-warm.npz"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--stats", required=True,
                        help="write peak memory and span count here at exit")
    args = parser.parse_args(argv)

    import_repro()
    tracer = Tracer()
    if args.trace:
        install(tracer)
    from repro.cli import main as repro_main

    code = repro_main(["serve", "--host", "127.0.0.1", "--port", "0",
                       "--jobs", "1", "--cache-dir", args.cache_dir,
                       "--peers", ""])
    stats = {"spans": tracer.n_spans,
             "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             / 1024.0}
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(SPANS_FILE)
        stats["spans_file"] = str(SPANS_FILE)
    Path(args.stats).write_text(json.dumps(stats))
    return code


if __name__ == "__main__":
    sys.exit(main())
