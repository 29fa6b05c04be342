"""A fixed reference workload that measures how fast the machine is right now.

On a shared machine the same op on the same curve can take 1× to 2× its
quiet time for minutes at a stretch, and much of that swing is shared by
all CPU-bound Python code.  Each run spends a share ``SHARE`` of its time
in this kernel, between ops, and reports times scaled to the speed at which
the kernel takes ``NOMINAL_S``: ``seconds × NOMINAL_S / (median kernel
seconds)``.  The kernel uses mpmath and Python integers only, never
g2modpoly, so a change to the library cannot move it.
"""

from __future__ import annotations

import time

#: kernel seconds at the nominal machine speed (its quiet-time median on a
#: 2-vCPU Intel Xeon VM, Python 3.11.7, mpmath 1.3.0 pure-Python backend)
NOMINAL_S = 0.05

#: share of a run's wall time spent in the kernel, spread between ops
SHARE = 0.04


def kernel() -> float:
    """Run the reference kernel once; returns its wall seconds.

    Root finding and a multiply-add loop with mpmath at 364 bits (the
    300-bit pipeline plus its guard bits: interpreter-bound), then products
    and remainders of ~4000-bit integers (the arithmetic under the
    certification rebuild's 4800-bit floats).  Of the kernels tried, this
    pair followed the slowdowns of both workloads most closely.
    """
    from mpmath import mp, mpc, mpf

    start = time.perf_counter()
    with mp.workprec(364):
        mp.polyroots([mpc(1), mpc(2, 1), mpc(-3), mpc(1, -1), mpc(0, 2), mpc(-1), mpc(1)],
                     maxsteps=200, extraprec=210)
        z, acc = mpc(mpf(1) / 3, mpf(2) / 7), mpc(0)
        for _ in range(400):
            acc = acc * z + 1
    a, b, r = 3 ** 3000, 7 ** 2500, 0
    for _ in range(300):
        r += (a * b) % (b + 1)
    return time.perf_counter() - start
