"""The renewal solver's blocked Toeplitz solve, kept as a reference.

``reset_transform._solve_lower_toeplitz`` inverts the kernel by Newton's
iteration for the reciprocal of a power series; this is the blocked divide
and conquer it replaced, O(n log^2 n) with one triangular solve per
diagonal block, and what the new solve is checked against. The body is
unchanged from the one the library used to run.
"""
from __future__ import annotations

import numpy as np

_TOEPLITZ_BLOCK = 128  # cells per diagonal block


def _solve_lower_toeplitz(a: np.ndarray, c: np.ndarray) -> None:
    """Overwrite c with z solving sum_{d<=k} a[d] z[k-d] = c[k], k < len(c).

    Blocked divide and conquer (Hairer, Lubich & Schlichte, SIAM J. Sci.
    Stat. Comput. 6, 1985) in O(n log^2 n): every diagonal block is a
    triangular solve with the same matrix, and as soon as the left half of
    a span of 2m cells is solved, its effect on the right half is
    subtracted by one FFT middle product of size 2m (the wrap-around of the
    circular convolution misses the cells kept). ``a`` needs len(c) entries.
    """
    from scipy.linalg import solve_triangular, toeplitz

    n = c.size
    b = min(_TOEPLITZ_BLOCK, n)
    tri = toeplitz(a[:b], np.zeros(b))
    for lo in range(0, n, b):
        hi = min(lo + b, n)
        c[lo:hi] = solve_triangular(tri[:hi - lo, :hi - lo], c[lo:hi],
                                    lower=True, check_finite=False)
        if hi == n:
            break
        # spans of 2m cells start at multiples of 2m, so [hi - m, hi) is a
        # left half for the largest such m
        m = b
        while hi % (2 * m) == 0:
            m *= 2
        prod = np.fft.rfft(c[hi - m:hi], 2 * m)
        prod *= np.fft.rfft(a[:2 * m], 2 * m)
        r = min(m, n - hi)
        c[hi:hi + r] -= np.fft.irfft(prod, 2 * m)[m:m + r]
