"""The admissible interval of the working-correlation parameter alpha.

R(alpha) of size n_max is positive definite exactly on the open interval
(-1/(n_max - 1), 1) for exchangeable and (-1, 1) for AR(1).  Every place
that checks or clamps alpha must use that interval: a fixed working
alpha (``WorkingModel``, which has no cluster size and checks at
n_max = 2, and ``check_alpha``), a scenario's true rho and the moment
estimate's clamp, which keeps it ALPHA_MARGIN inside each bound.
"""

import numpy as np
import pytest

from pgee import LongitudinalDataset, Scenario, WorkingModel, assemble_kernel, estimate_alpha
from pgee.fitting import ALPHA_MARGIN

STRUCTURES = ("exchangeable", "ar1")
N_MAX = range(2, 9)

#: How far inside a bound an admissible alpha is taken.
INSIDE = 1e-9


def _bounds(structure, n_max):
    return (-1.0 / (n_max - 1) if structure == "exchangeable" else -1.0), 1.0


@pytest.mark.parametrize("structure", STRUCTURES)
def test_working_model_checks_at_two(structure):
    lo, hi = _bounds(structure, 2)
    for alpha in (lo + INSIDE, hi - INSIDE):
        assert WorkingModel(structure=structure, alpha=alpha).alpha == alpha
    for alpha in (lo, hi):
        with pytest.raises(ValueError):
            WorkingModel(structure=structure, alpha=alpha)


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("n_max", N_MAX)
def test_check_alpha_and_scenario(structure, n_max):
    lo, hi = _bounds(structure, n_max)
    wm = WorkingModel(structure=structure)
    for alpha in (lo + INSIDE, hi - INSIDE):
        wm.check_alpha(alpha, n_max)
        Scenario(n_clusters=10, n_pattern=(n_max,), rho=alpha, true_structure=structure)
    for alpha in (lo, hi):
        with pytest.raises(ValueError):
            wm.check_alpha(alpha, n_max)
        with pytest.raises(ValueError):
            Scenario(n_clusters=10, n_pattern=(n_max,), rho=alpha, true_structure=structure)


def _dataset(n_max, low):
    """Intercept only: 20 clusters of size 2 and one of size n_max.  At
    beta = 0 every Pearson residual is +1 or -1; ``low`` alternates them
    within a cluster, else a cluster's responses are all equal, so the raw
    moment estimate lies below or above the interval."""
    sizes = [2] * 20 + [n_max]
    y = np.concatenate([np.arange(n) % 2 if low else np.full(n, i % 2) for i, n in enumerate(sizes)])
    return LongitudinalDataset(ids=tuple(range(len(sizes))), sizes=sizes, y=y,
                               X=np.ones((len(y), 1)), colnames=("intercept",))


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("n_max", N_MAX)
def test_estimate_clamped_inside_each_bound(structure, n_max):
    lo, hi = _bounds(structure, n_max)
    for low, bound in ((True, lo), (False, hi)):
        kernel = assemble_kernel(np.zeros(1), structure, 0.0, 1.0, _dataset(n_max, low))
        (alpha,) = estimate_alpha(kernel)
        assert lo < alpha < hi
        assert alpha == pytest.approx(bound - np.sign(bound) * ALPHA_MARGIN, abs=1e-15)
