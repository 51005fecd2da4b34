"""Time in-process ``plaus.cli.main(argv)`` calls in a fresh interpreter.

Started by ``run.py`` as ``python3 bench/measure.py SPEC``, where SPEC is a
JSON object with ``src``, ``argv``, ``out_dir``, ``deadline``, ``trace`` and
``spans_path``. Makes one untimed warm-up call, then repeats timed calls
(at least ``MIN_CALLS``) while another one still ends before ``deadline``,
a :func:`time.monotonic` reading, each into a freshly emptied ``out_dir``.
Prints one JSON line with the per-call exit codes, wall times and report
digests, and the process's peak RSS. With ``trace``
the timed calls alternate untraced and traced, and the line also carries
the per-layer metrics of every traced call.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import asdict
from time import monotonic, perf_counter

MIN_CALLS = 1


def digest_dir(path: str) -> str:
    """sha256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import plaus.cli as cli
    from tracing import Tracer, layer_metrics

    argv, out_dir, deadline = spec["argv"], spec["out_dir"], spec["deadline"]
    tracer = Tracer()

    def call(traced: bool):
        shutil.rmtree(out_dir, ignore_errors=True)
        if traced:
            tracer.install()
            try:
                start = perf_counter()
                rc = tracer.root("main", cli.main, argv)
                elapsed = perf_counter() - start
            finally:
                tracer.uninstall()
        else:
            start = perf_counter()
            rc = cli.main(argv)
            elapsed = perf_counter() - start
        return rc, elapsed, digest_dir(out_dir)

    rc, warm_up, digest = call(traced=False)
    out = {"rc": [rc], "digests": [digest], "times": [], "traced_times": [], "layers": []}
    spans = []
    # Wall time of one round (an untraced call, plus a traced one with trace).
    rounds = [warm_up * (2 if spec["trace"] else 1)]
    while len(out["times"]) < MIN_CALLS or monotonic() + statistics.median(rounds) < deadline:
        round_start = perf_counter()
        for traced in (False, True) if spec["trace"] else (False,):
            rc, elapsed, digest = call(traced)
            out["rc"].append(rc)
            out["digests"].append(digest)
            if traced:
                spans = tracer.take()
                out["traced_times"].append(elapsed)
                out["layers"].append(layer_metrics(spans, tracer.missing))
            else:
                out["times"].append(elapsed)
        rounds.append(perf_counter() - round_start)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if spec["trace"]:
        with open(spec["spans_path"], "w", encoding="utf-8") as handle:
            json.dump([{k: v for k, v in asdict(s).items() if k != "attrs"} for s in spans], handle)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
