"""A fixed reference kernel that never calls mufact.

`cost_ref` divides the mean operation time by this kernel's median time,
both measured in the same run with the kernel interleaved between the
operations. On a shared host the speed of the whole machine drifts from one
minute to the next (by 14% between four runs of the same inputs on the
2-core development host); the ratio cancels what moves both alike. The
kernel mixes what mufact's operations spend their time on: Python-level
loops over tiny numpy arrays, a LAPACK call on a mid-sized matrix, batched
products over a stack of matrices too large for the L2 cache, and a JSON
round trip.
"""

from __future__ import annotations

import json
import time

import numpy as np

_rng = np.random.default_rng(20180717)
_SMALL = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_z = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))
_HERM = _z + np.conj(_z).T
_STACK = _rng.standard_normal((600, 12, 12)) + 1j * _rng.standard_normal((600, 12, 12))
_FLOATS = _rng.standard_normal(1500).tolist()


def kernel() -> float:
    acc = 0.0
    m = _SMALL
    for _ in range(40):
        u, s, vh = np.linalg.svd(m)
        m = (u @ vh) @ _SMALL / s[0]
        acc += float(np.abs(np.einsum("ij,ij->", m, np.conj(m))))
    acc += float(np.linalg.eigh(_HERM)[0][-1])
    prod = _STACK @ _STACK[::-1]
    acc += float(np.abs(prod).sum())
    acc += sum(json.loads(json.dumps(_FLOATS)))
    return acc


def timed() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
