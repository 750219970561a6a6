"""Real-valued profiles sampled on a uniform grid over [0, 1]."""

from dataclasses import dataclass

import numpy as np


def uniform_nodes(m: int) -> np.ndarray:
    """The m + 1 equidistant nodes covering [0, 1]."""
    return np.linspace(0.0, 1.0, m + 1)


@dataclass(frozen=True)
class GridFunction:
    """Scalar function of z known through samples at ``m + 1`` uniform nodes.

    The carrier type for reaction profiles, feedback-gain profiles and agent
    states.  Values are immutable after construction; evaluation between
    nodes is linear interpolation.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("GridFunction needs a 1-D array with at least two nodes")
        if not np.all(np.isfinite(vals)):
            raise ValueError("GridFunction samples must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value: float, m: int) -> "GridFunction":
        return cls(np.full(m + 1, float(value)))

    @property
    def m(self) -> int:
        return self.values.size - 1

    @property
    def h(self) -> float:
        return 1.0 / self.m

    @property
    def nodes(self) -> np.ndarray:
        return uniform_nodes(self.m)

    def __call__(self, z):
        return np.interp(z, self.nodes, self.values)


def trapezoid_weights(m: int) -> np.ndarray:
    """Quadrature weights of the composite trapezoid rule on m intervals."""
    w = np.full(m + 1, 1.0 / m)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def hat_row(z: float, m: int) -> np.ndarray:
    """Linear-interpolation row of the point z in [0, 1] on m intervals: the
    sample f(z) of a profile is ``hat_row(z, m) @ f`` on the grid nodes."""
    j = min(int(z * m), m - 1)
    theta = z * m - j
    row = np.zeros(m + 1)
    row[j], row[j + 1] = 1.0 - theta, theta
    return row


def cumulative_trapezoid(y: np.ndarray, dx: float, axis: int = -1) -> np.ndarray:
    """Running composite-trapezoid integral of y along axis, starting from 0.

    Same operations in the same order as scipy's ``cumulative_trapezoid``
    with ``initial=0``, so results agree bit for bit.
    """
    y = np.moveaxis(np.asarray(y, dtype=float), axis, 0)
    out = np.zeros_like(y)
    np.cumsum(dx * (y[1:] + y[:-1]) / 2.0, axis=0, out=out[1:])
    return np.moveaxis(out, 0, axis)
