"""A fixed piece of work that measures how fast the machine is right now.

On a shared VM the same code runs at different speeds from minute to
minute: other tenants' load slows every instruction, the program's and
anyone else's alike.  `reference_s` times work that never changes and
never touches kaczsim -- heap pushes and pops of tuples, dict stores,
small objects and numpy block products, the mix the simulator spends
its time on -- so that a worker's times can be stated at a fixed
machine speed (see `run.at_reference_speed`).

It runs in the benchmark's parent process, which never imports kaczsim,
before the first worker and after each one, with the garbage collector
off, so nothing the program leaves behind can change it.
"""
from __future__ import annotations

import gc
import heapq
import random
import time

import numpy as np

ROUNDS = 400          # about 0.5 s in all on a 2-vCPU Xeon VM


class _Event:
    __slots__ = ("time", "agent", "payload")

    def __init__(self, time, agent, payload):
        self.time, self.agent, self.payload = time, agent, payload


def _round(rng: random.Random, block: np.ndarray, x: np.ndarray) -> None:
    heap: list = []
    latest: dict = {}
    for i in range(600):
        heapq.heappush(heap, (rng.random(), i, _Event(i, i & 7, None)))
        if i & 1:
            _, _, ev = heapq.heappop(heap)
            latest[ev.agent] = ev
        if i % 12 == 0:
            r = block @ x - 1.0
            x = x - 0.001 * (block.T @ r)


def reference_s() -> float:
    """Host seconds for the fixed work: the sum of its rounds."""
    rng = random.Random(0)
    block = np.linspace(-1.0, 1.0, 20 * 400).reshape(20, 400)
    x = np.zeros(400)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            _round(rng, block, x)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
