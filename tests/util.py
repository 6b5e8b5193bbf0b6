import numpy as np
from hypothesis import settings

from rslab.graph_spectral import Graph

# deterministic examples, so the suite gives the same verdict on every run
KERNEL_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                           max_examples=60)


def random_regular_graph(nv, d, rng) -> Graph:
    """Simple d-regular graph on nv vertices via the pairing model."""
    if nv * d % 2 or d >= nv:
        raise ValueError("need nv*d even and d < nv")
    while True:
        stubs = np.repeat(np.arange(nv), d)
        rng.shuffle(stubs)
        A = np.zeros((nv, nv))
        ok = True
        for u, v in stubs.reshape(-1, 2):
            if u == v or A[u, v]:
                ok = False
                break
            A[u, v] = A[v, u] = 1.0
        if ok:
            return Graph(A)


def simplex_grid(m, step):
    """All points of the (m-1)-simplex, m in {2, 3, 4}, whose coordinates
    are multiples of step (1/step an integer), as rows."""
    N = int(round(1.0 / step))
    if m == 2:
        i = np.arange(N + 1)
        return np.column_stack([i, N - i]) / N
    if m == 3:
        i, j = np.meshgrid(np.arange(N + 1), np.arange(N + 1), indexing="ij")
        keep = i + j <= N
        i, j = i[keep], j[keep]
        return np.column_stack([i, j, N - i - j]) / N
    if m == 4:
        rows = []
        for i in range(N + 1):
            j, k = np.meshgrid(np.arange(N - i + 1), np.arange(N - i + 1),
                               indexing="ij")
            keep = j + k <= N - i
            j, k = j[keep], k[keep]
            rows.append(np.column_stack(
                [np.full(j.size, i), j, k, N - i - j - k]))
        return np.vstack(rows) / N
    raise ValueError("simplex grid supports 2 to 4 states")
