"""Frames built from arbitrary column sets, for tests that need non-group geometry."""

import numpy as np

from compdet import frames


class DenseFrame(frames.Frame):
    """A Frame over any N x M column set, applied as dense products with its entries.

    It has no Walsh masks; it also serves as the dense oracle of the group
    frames' adjoint and apply.
    """

    def adjoint(self, u):
        return self.entries.T @ u if u.ndim == 1 else (self.entries.T @ u[..., None])[..., 0]

    def apply(self, x):
        return self.entries @ x if x.ndim == 1 else (self.entries @ x[..., None])[..., 0]


def frame_from_entries(entries) -> DenseFrame:
    """Wrap an N x M column set as a DenseFrame, with mu from the dense Gram."""
    entries = np.asarray(entries, dtype=float)
    n, m = entries.shape
    kappa = (m - 1) // n if n and (m - 1) % n == 0 else 0
    return DenseFrame(m=m, n=n, mu=frames._coherence_of(entries), kappa=kappa, masks=None,
                      entries=entries)
