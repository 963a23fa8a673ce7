"""One benchmark command in a fresh interpreter.

    python3 perfbench/child.py --result R.json --spawned-at T [--trace] -- <cli argv>

Imports `rician_mimo.cli` from the checkout's `src/`, calls `cli.main(argv)`
once and writes a JSON record to R.json: exit code, set-up time (from T, the
parent's `time.perf_counter()` just before it started this process, to the
end of the import), wall time of `cli.main`, peak RSS and the BLAS facts.
With `--trace` the record also holds the spans and per-layer metrics.
With no CLI arguments it only imports and records the set-up time.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def blas_facts() -> list[dict]:
    """Version string and thread count of every OpenBLAS loaded in-process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    facts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        # wheels prefix and suffix the symbols; a system OpenBLAS does not
        for symbol in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
            threads = getattr(lib, symbol.format("get_num_threads"), None)
            config = getattr(lib, symbol.format("get_config"), None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry.update(threads=threads(), config=config().decode())
                break
        facts.append(entry)
    return facts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import scipy

    from rician_mimo import cli

    ready = time.perf_counter()
    record = {"rc": None, "setup_s": ready - opts.spawned_at}
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != os.path.join(ROOT, "src"):
        raise SystemExit(f"imported rician_mimo from {cli.__file__}, not from {ROOT}/src")
    tracer = None
    if argv:
        if opts.trace:
            from tracer import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            record["rc"] = cli.main(argv)
        finally:
            record["wall_s"] = time.perf_counter() - start
            if tracer is not None:
                tracer.restore()
        if tracer is not None:
            record["spans"] = tracer.spans
            record["layers"] = layer_metrics(tracer.spans, tracer.counters)
    else:
        record["rc"] = 0
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["facts"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_facts(),
    }
    with open(opts.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main())
