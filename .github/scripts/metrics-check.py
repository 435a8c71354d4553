#!/usr/bin/env python
"""Scrape and validate the service's /metrics Prometheus exposition.

Usage::

    metrics-check.py URL            # one scrape: well-formedness checks
    metrics-check.py URL --wait 120 # poll until request histograms appear
    metrics-check.py URL --reconcile  # + span totals vs request wall-clock, solves

Checks held on every scrape:

* every line is a valid 0.0.4 HELP/TYPE header or sample line,
* histogram buckets are cumulative (monotone in ``le``) and the ``+Inf``
  bucket equals the matching ``_count`` series.

``--reconcile`` additionally requires the per-op request latency
histograms and the pipeline span rollups to be present and consistent:
the summed top-level ``scenario.*`` span seconds (recorded inside the
shard workers) must not exceed the decompose requests' measured
wall-clock sum (timed around the whole request in the front-end).  Run it
on a quiesced server — mid-flight requests may have closed their spans
before their histogram observation lands.  It also requires the shard
workers' eigensolver counts (``repro_fiedler_solves_total``) with at least
one solve, so the solver's registry entries are known to reach the scrape.
"""

import re
import sys
import time
import urllib.request

SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$"
)


def scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as resp:
        ctype = resp.headers.get("Content-Type", "")
        assert "text/plain" in ctype, f"unexpected content type {ctype!r}"
        return resp.read().decode()


def parse_labels(text: str) -> dict:
    labels = {}
    for part in re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"', text or ""):
        labels[part[0]] = part[1]
    return labels


def validate(text: str) -> dict:
    """Well-formedness; returns metric name -> [(labels dict, value)]."""
    series: dict = {}
    for line in text.strip().split("\n"):
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            assert len(line.split(maxsplit=3)) == 4, f"malformed header: {line!r}"
            continue
        m = SAMPLE_RE.match(line)
        assert m, f"malformed sample line: {line!r}"
        value = float(m.group(3).replace("+Inf", "inf").replace("-Inf", "-inf"))
        series.setdefault(m.group(1), []).append((parse_labels(m.group(2)), value))

    # cumulative-bucket sanity for every histogram
    for name in [n for n in series if n.endswith("_bucket")]:
        base = name[: -len("_bucket")]
        groups: dict = {}
        for labels, value in series[name]:
            le = labels.pop("le")
            key = tuple(sorted(labels.items()))
            groups.setdefault(key, []).append((float(le.replace("+Inf", "inf")), value))
        counts = {tuple(sorted(lb.items())): v for lb, v in series.get(f"{base}_count", [])}
        for key, buckets in groups.items():
            buckets.sort()
            values = [v for _, v in buckets]
            assert values == sorted(values), f"{name}{dict(key)}: buckets not cumulative"
            assert buckets[-1][0] == float("inf"), f"{name}{dict(key)}: no +Inf bucket"
            assert values[-1] == counts.get(key), (
                f"{name}{dict(key)}: +Inf bucket {values[-1]} != _count {counts.get(key)}"
            )
    return series


def reconcile(series: dict) -> None:
    """Span rollups must reconcile with measured request wall-clock."""
    hist_sum = sum(
        value for labels, value in series.get("repro_request_seconds_sum", [])
        if labels.get("op") == "decompose"
    )
    hist_count = sum(
        value for labels, value in series.get("repro_request_seconds_count", [])
        if labels.get("op") == "decompose"
    )
    assert hist_count > 0, "no decompose requests observed server-side"
    spans = {
        labels.get("span"): value
        for labels, value in series.get("repro_span_seconds_total", [])
    }
    top_level = {
        path: secs for path, secs in spans.items()
        if path and path.startswith("scenario.") and "/" not in path
    }
    assert top_level, f"no top-level scenario spans (have {sorted(spans)[:8]})"
    span_total = sum(top_level.values())
    assert 0 < span_total <= hist_sum + 1.0, (
        f"span rollup total {span_total:.3f}s does not reconcile with "
        f"decompose wall-clock sum {hist_sum:.3f}s"
    )
    print(
        f"metrics-check: spans reconcile — {span_total:.3f}s across "
        f"{sorted(top_level)} within {hist_sum:.3f}s of request wall-clock "
        f"({int(hist_count)} requests)"
    )
    solves = sum(value for _, value in series.get("repro_fiedler_solves_total", []))
    assert solves >= 1, "no eigensolver solves counted (repro_fiedler_solves_total)"
    print(f"metrics-check: {int(solves)} eigensolver solves counted")


def main(argv: list[str]) -> int:
    url = argv[0]
    wait = 0.0
    if "--wait" in argv:
        wait = float(argv[argv.index("--wait") + 1])
    deadline = time.monotonic() + wait
    while True:
        text = scrape(url)
        series = validate(text)
        if "repro_request_seconds_bucket" in series or time.monotonic() >= deadline:
            break
        time.sleep(0.5)
    if wait:
        assert "repro_request_seconds_bucket" in series, (
            "request histograms never appeared on /metrics"
        )
    if "--reconcile" in argv:
        reconcile(series)
    print(f"metrics-check: ok — {len(series)} series, "
          f"{sum(len(v) for v in series.values())} samples at {url}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
