"""Per-call time of the in-house normal quantile against scipy's.

    python tools/ndtri_timing.py

times ``choquet._ndtri`` and ``scipy.special.ndtri`` on 1 - p of the
simulator's uniforms, at a training episode's 2500 elements and a Monte
Carlo block's 32000, pinned to one CPU where the OS allows it, and prints the
min and median per call of 7 repeats of 20 calls, in ms.
"""

import os
import statistics
import sys
import timeit

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from scipy.special import ndtri  # noqa: E402

from mvgame import choquet, market  # noqa: E402

SIZES = (2500, 32000)


def timings(repeat=7, number=20):
    """Yield (elements, name, min ms, median ms) per call."""
    for n in SIZES:
        q = 1.0 - market._draw_uniforms(market.episode_generator(7, 0), n)
        for name, f in (("in-house", choquet._ndtri), ("scipy", ndtri)):
            ms = [t / number * 1e3 for t in timeit.repeat(lambda: f(q), number=number,
                                                          repeat=repeat)]
            yield n, name, min(ms), statistics.median(ms)


if __name__ == "__main__":
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(f"{'elements':>8}  {'ndtri':<8}  {'min ms':>7}  {'median ms':>9}")
    for n, name, low, mid in timings():
        print(f"{n:>8}  {name:<8}  {low:>7.3f}  {mid:>9.3f}")
