"""Small helpers that only the tests read."""
import numpy as np

from hwave.space import FiniteSpace


def rescale(space: FiniteSpace, factor: float) -> FiniteSpace:
    """The same points and weights with every distance multiplied by
    ``factor``."""
    return FiniteSpace(dist=space.dist * factor, weights=space.weights)


def neighbours_at(order, k: int):
    """The same-level neighbour positions of every level-k cell of a
    reference order."""
    return order.neighbours[k - order.k_coarse]


def riesz_bounds(M) -> tuple[float, float]:
    """Extreme eigenvalues of the whole matrix from one ``eigvalsh``: the
    optimal two-sided Riesz constants, as an oracle for ``GramLevel.riesz``."""
    eigs = np.linalg.eigvalsh(M)
    return float(eigs[0]), float(eigs[-1])
