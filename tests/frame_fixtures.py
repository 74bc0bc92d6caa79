"""Frames built from arbitrary column sets, for tests that need non-group geometry."""

import numpy as np

from compdet import frames


def frame_from_entries(entries) -> frames.Frame:
    """Wrap an N x M column set as a Frame, with mu from the dense Gram."""
    entries = np.asarray(entries, dtype=float)
    n, m = entries.shape
    kappa = (m - 1) // n if n and (m - 1) % n == 0 else 0
    return frames.Frame(m=m, n=n, entries=entries, mu=frames._coherence_of(entries), kappa=kappa)
