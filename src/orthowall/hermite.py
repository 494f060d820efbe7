"""Cubic Hermite interpolation on sorted knots, in numpy alone.

:class:`CubicHermite` makes the numbers of ``scipy.interpolate.CubicHermiteSpline``
(with its default extrapolation): the same piecewise coefficients, the same
interval search and the same evaluation order, so that a command which
interpolates a written profile or resamples a layer solution loads no scipy
module.  It is the package's one cubic Hermite: the solve's right tail reads
its decay exponent through it as well.
"""

from __future__ import annotations

import numpy as np


class CubicHermite:
    """Cubic Hermite interpolant of ``y`` with slopes ``dydx`` at the knots
    ``x``, along axis 0 of ``y``; outside the knots it extends its end cubics.

    Raises ValueError, with scipy's messages, unless ``x`` is a finite,
    strictly increasing sequence of at least 2 knots and ``y`` and ``dydx``
    hold one finite row per knot.
    """

    def __init__(self, x, y, dydx):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dydx = np.asarray(dydx, dtype=float)
        if x.ndim != 1 or x.size < 2:
            raise ValueError("`x` must be 1-dimensional with at least 2 elements.")
        if y.shape != dydx.shape or y.shape[:1] != x.shape:
            raise ValueError("`y` and `dydx` must have one row per knot.")
        for name, a in (("x", x), ("y", y), ("dydx", dydx)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"`{name}` must contain only finite values.")
        dx = np.diff(x)
        if np.any(dx <= 0.0):
            raise ValueError("`x` must be strictly increasing sequence.")
        dx = dx.reshape(dx.shape + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dx
        m0 = dydx[:-1]
        t = (m0 + dydx[1:] - 2.0 * slope) / dx
        # the power-basis coefficients of each interval, highest first
        self.c = np.stack([t / dx, (slope - m0) / dx - t, m0, y[:-1]])
        self.x = x

    def __call__(self, xs) -> np.ndarray:
        """Values at ``xs``, shape ``xs.shape + y.shape[1:]``."""
        xs = np.asarray(xs, dtype=float)
        i = np.clip(np.searchsorted(self.x, xs, "right") - 1, 0, self.x.size - 2)
        s = (xs - self.x[i]).reshape(xs.shape + (1,) * (self.c.ndim - 2))
        c0, c1, c2, c3 = self.c[:, i]
        # PPoly's order of operations, so that the values are scipy's bits
        return ((c3 + c2 * s) + c1 * (s * s)) + c0 * ((s * s) * s)
