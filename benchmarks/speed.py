"""Scale measured times to a fixed machine speed.

The shared host the benchmark runs on changes speed by up to half within
seconds and between minutes (other tenants on the same cores), and every
timing of the program moves with it. A probe, a fixed piece of pure Python
that never touches the program, runs right before and right after each
timed sample; the sample is scaled by `REFERENCE_S` over the mean of the two
probe times. A scaled time reads as on a machine where the probe takes
`REFERENCE_S`. A program that gets faster shows in full, because the probe
does not change with it; a host that gets slower slows the probe too.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.006  # about the probe's time on a 2-vCPU Xeon VM, Python 3.11

_WORDS = ["qTAr", "mHTp", "twns", "ltwns", "mn", "sfAqs", "AlsAEp", "Oy", "wqt"] * 4
_TABLE = {word: i for i, word in enumerate(_WORDS)}


class _Token:
    __slots__ = ("surface", "index")

    def __init__(self, surface: str, index: int):
        self.surface = surface
        self.index = index


def _work() -> int:
    """Dict and string work, small objects and calls, as the program does,
    then a working set of a few MB, as a whole-corpus pass has."""
    counts: dict[str, int] = {}
    for i in range(5000):
        counts[str(i % 1000)] = i
    total = len(counts)
    for _ in range(40):
        tokens = [_Token(w.lower(), k) for k, w in enumerate(" ".join(_WORDS).split())]
        for token in tokens:
            if token.surface.startswith("l") and token.surface[1:] in _TABLE:
                total += 1
            total += _TABLE.get(token.surface, -1)
        total += len(sorted({token.surface for token in tokens}))
    rows = [{"id": str(i), "n": i, "pair": (i, str(i))} for i in range(5000)]
    index = {row["id"]: row for row in rows}
    return total + sum(index[str(i)]["n"] for i in range(0, 5000, 3))


def probe() -> float:
    """Seconds the probe takes now."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def scaled(step):
    """Run step() between two probes; return (its result, the scale factor)."""
    before = probe()
    result = step()
    return result, REFERENCE_S * 2 / (before + probe())
