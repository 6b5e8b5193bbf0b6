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
