"""The benchmark's arithmetic: percentiles, span self time, FLOP counts.

Kept apart from run.py so test_stats.py can check it on known answers.
"""

import math
import statistics

# Percentiles a tail metric may use, lowest first.
TAIL_CANDIDATES = (50, 75, 80, 90, 95, 99, 99.9)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it. Infinite values (failed requests) sort last."""
    if not xs:
        return 0.0
    s = sorted(xs)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1]


def tail_percentile(n):
    """The highest candidate percentile with at least ten samples beyond it
    among n samples (50 when even the median has fewer)."""
    best = TAIL_CANDIDATES[0]
    for p in TAIL_CANDIDATES:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            best = p
    return best


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its children cover (children may overlap one another).

    `spans` is a list of (parent_index, start, end); parent_index is -1 for
    a root. Returns one self time per span, in the spans' time unit.
    """
    children = [[] for _ in spans]
    for i, (parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end) in enumerate(spans):
        pieces = sorted((max(spans[c][1], start), min(spans[c][2], end))
                        for c in children[i])
        covered, cur_start, cur_end = 0.0, None, None
        for a, b in pieces:
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


def layer_flops(layer):
    """(forward, backward) FLOPs of a Convolution or InnerProduct layer from
    its blob shapes, or None for other layers.

    Forward is 2 * (top elements) * (weights per output element). Backward
    computes the weight gradient (same count) and, when the bottom needs a
    gradient, the data gradient (same count again). Bias terms are ignored.
    """
    if layer["type"] not in ("Convolution", "InnerProduct") or not layer["params"]:
        return None
    top = math.prod(layer["tops"][0])
    weights = layer["params"][0]
    per_output = math.prod(weights[1:])  # (Cin/groups)*kh*kw, or fan-in
    fwd = 2 * top * per_output
    need_data_grad = bool(layer["bottom_need_backward"]
                          and layer["bottom_need_backward"][0])
    bwd = fwd * (2 if need_data_grad else 1)
    return fwd, bwd
