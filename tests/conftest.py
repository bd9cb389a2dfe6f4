"""Shared fixtures: the 4x4 cycle-times-star worked instance with its known
bases, spectrum, and sampling sets.

The suite runs the BLAS on one thread. Its matrices are tiny, and a second
BLAS thread only adds hand-off latency whose size varies from call to call,
which puts noise into the timing comparison of criterion 9.
"""

import os
import sys

# the BLAS reads these once, when numpy loads
assert "numpy" not in sys.modules, "numpy was imported before the BLAS thread count was set"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from jtvsampling import SpectralSupport, cycle_graph, laplacian, star_graph  # noqa: E402


@dataclass(frozen=True)
class RefInstance:
    l_time: np.ndarray
    l_graph: np.ndarray
    x: np.ndarray
    xf_block: np.ndarray
    ut_r: np.ndarray
    ug_r: np.ndarray
    support: SpectralSupport
    psi_uj: np.ndarray
    coeffs: dict
    sample_values: np.ndarray


@pytest.fixture(scope="session")
def ref():
    l_time = np.array(
        [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]], dtype=float
    )
    l_graph = np.array(
        [[1, -1, 0, 0], [-1, 3, -1, -1], [0, -1, 1, 0], [0, -1, 0, 1]], dtype=float
    )
    x = np.array(
        [
            [0.2985, -0.3533, -0.2985, 0.3533],
            [0.0, 0.0, 0.0, 0.0],
            [-0.1492, 0.5432, 0.1492, -0.5432],
            [-0.1492, -0.1898, 0.1492, 0.1898],
        ]
    )
    # occupied block of the joint spectrum: rows = graph freqs {1,2},
    # cols = time freqs {1,2}
    xf_block = np.array([[0.733, 0.0], [0.612, 0.517]])
    ut_r = np.array(
        [[0.0, 0.7071], [-0.7071, 0.0], [0.0, -0.7071], [0.7071, 0.0]]
    )
    ug_r = np.array(
        [[0.0, 0.8165], [0.0, 0.0], [-0.7071, -0.4082], [0.7071, -0.4082]]
    )
    support = SpectralSupport(t_dim=4, g_dim=4, pairs=frozenset({(1, 1), (1, 2), (2, 2)}))
    psi_uj = np.array(
        [
            [0.0, 0.0, 0.5774],
            [0.0, 0.0, -0.2887],
            [0.0, -0.5774, 0.0],
            [0.5, 0.2887, 0.0],
        ]
    )
    coeffs = {(1, 1): 0.733, (1, 2): 0.612, (2, 2): 0.517}
    sample_values = np.array([0.2985, -0.3533, 0.5432])
    return RefInstance(
        l_time=l_time,
        l_graph=l_graph,
        x=x,
        xf_block=xf_block,
        ut_r=ut_r,
        ug_r=ug_r,
        support=support,
        psi_uj=psi_uj,
        coeffs=coeffs,
        sample_values=sample_values,
    )


@pytest.fixture(scope="session")
def ref_graphs():
    return cycle_graph(4), star_graph(4, center=1)


@pytest.fixture(scope="session")
def ref_laplacians(ref_graphs):
    gt, gg = ref_graphs
    return laplacian(gt), laplacian(gg)
