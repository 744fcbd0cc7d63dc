"""Self-time arithmetic of the span recorder.

Run from the repository root: python3 -m pytest perfbench/test_spans.py
"""

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, busy_times, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_only_same_thread_children():
    # (start, end, parent, thread); thread 0 is the caller, 1 and 2 are
    # pool workers that ran children of span 2 while it waited.
    spans = [
        (0.0, 10.0, -1, 0),  # 0: root
        (1.0, 3.0, 0, 0),  # 1: child of 0
        (4.0, 8.0, 0, 0),  # 2: child of 0, submits work to the pool
        (5.0, 6.0, 2, 0),  # 3: child of 2 on the caller's thread
        (4.5, 7.5, 2, 1),  # 4: child of 2 on worker 1
        (4.5, 7.9, 2, 2),  # 5: child of 2 on worker 2
        (5.0, 7.0, 4, 1),  # 6: child of 4 on worker 1
    ]
    start, end, parent, thread = (np.array(col) for col in zip(*spans))
    got = self_times(start, end, parent, thread)
    assert got == pytest.approx([10 - 2 - 4, 2, 4 - 1, 1, 3 - 2, 3.4, 2])


def test_busy_time_leaves_out_the_wait_on_other_threads():
    # span 1 submits to the pool and waits; its children overlap each
    # other, and the last one is clipped at its parent's end.
    spans = [
        (0.0, 10.0, -1, 0),  # 0: root
        (2.0, 8.0, 0, 0),  # 1: child of 0, submits work to the pool
        (2.5, 3.0, 1, 0),  # 2: child of 1 on the caller's thread
        (3.0, 5.0, 1, 1),  # 3: child of 1 on worker 1
        (4.0, 6.0, 1, 2),  # 4: child of 1 on worker 2
        (7.0, 8.5, 1, 1),  # 5: child of 1 on worker 1, ends after its parent
    ]
    start, end, parent, thread = (np.array(col) for col in zip(*spans))
    got = busy_times(start, end, parent, thread)
    # span 1: 6 s long, its children cover [2.5, 6] and [7, 8]
    assert got == pytest.approx([10 - 6, 6 - 3.5 - 1, 0.5, 2, 2, 1.5])


def test_recorded_pool_children_keep_parent_and_thread():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap(leaf, "leaf", "padic")

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(tracer.adopt(traced_leaf)) for _ in range(2)]
            for f in futures:
                f.result()

    tracer.wrap(fan_out, "fan_out", "padic")()
    cols = {k: np.frombuffer(v, dtype=v.typecode) for k, v in tracer.columns.items()}
    outer = int(np.flatnonzero(cols["name"] == 1)[0])
    leaves = np.flatnonzero(cols["name"] == 0)
    assert len(leaves) == 2
    assert (cols["parent"][leaves] == outer).all()
    assert (cols["thread"][leaves] != cols["thread"][outer]).all()
    selfs = self_times(cols["start"], cols["end"], cols["parent"], cols["thread"])
    outer_duration = cols["end"][outer] - cols["start"][outer]
    assert selfs[outer] == pytest.approx(outer_duration)


def test_layer_metrics_take_the_median_over_passes():
    names = [("expand", "padic"), ("cli.verify", "cli")]
    # three passes: expand runs 1, 2 and 3 times inside a cli span
    rows = []
    for p, calls in enumerate((1, 2, 3)):
        base = 100.0 * p
        root = len(rows)
        rows.append((1, base, base + 10.0, -1, 0, 0))
        rows += [(0, base + 1.0 + 2 * k, base + 2.0 + 2 * k, root, 0, 0) for k in range(calls)]
    keys = ("name", "start", "end", "parent", "thread", "count")
    dump = {k: np.array(col) for k, col in zip(keys, zip(*rows))}
    dump["span_name"] = np.array([n for n, _ in names])
    dump["span_layer"] = np.array([layer for _, layer in names])
    got = layer_metrics(dump, [(0.0, 50.0), (100.0, 150.0), (200.0, 250.0)])
    assert got["expand.calls"] == 2
    assert got["expand.self_s"] == pytest.approx(2.0)
    assert got["cli.verify.self_s"] == pytest.approx(8.0)
    assert got["padic.busy_s"] == pytest.approx(2.0)
    assert got["add.calls"] == 0
