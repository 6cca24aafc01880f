"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from pgee import assemble_kernel
from pgee.data import validate_dataset


def random_dataset(rng, n_clusters=8, size_range=(3, 6), p_extra=2, event=0.4):
    """Random dataset with intercept + subject-level binary + within-subject
    uniform covariate (p = 3 by default).  The first four clusters alternate
    treatment so no arm ever holds all the information in a direction."""
    rows = []
    for i in range(n_clusters):
        x = float(i % 2) if i < 4 else float(rng.integers(0, 2))
        n = int(rng.integers(size_range[0], size_range[1]))
        for _ in range(n):
            covs = [x, float(rng.uniform(-1.0, 1.0))][:p_extra]
            y = float(rng.random() < event)
            rows.append((i, y, tuple(covs), None))
    return validate_dataset(rows)


def balanced_dataset(rng, n_clusters=8, size=4, event=0.4):
    rows = []
    for i in range(n_clusters):
        x = float(rng.integers(0, 2))
        for _ in range(size):
            rows.append((i, float(rng.random() < event), (x, rng.uniform(-1, 1)), None))
    return validate_dataset(rows)


def two_arm_dataset(n_control, n_treated, size=4, alternating_y=True):
    """p = 2 design: intercept + subject-level treatment, all clusters the
    same size, responses alternating within cluster (identical per arm)."""
    rows = []
    cid = 0
    for arm, count in ((1.0, n_treated), (0.0, n_control)):
        for _ in range(count):
            for j in range(size):
                y = float(j % 2) if alternating_y else 0.0
                rows.append((cid, y, (arm,), None))
            cid += 1
    return validate_dataset(rows)


def intercept_only_dataset(ys, cluster_size=2):
    """Intercept-only dataset built from a flat response list."""
    assert len(ys) % cluster_size == 0
    rows = []
    for i, y in enumerate(ys):
        rows.append((i // cluster_size, float(y), (), None))
    return validate_dataset(rows)


def random_kernel(rng, structure="exchangeable", alpha=0.25, phi=1.0, **kwargs):
    ds = random_dataset(rng, **kwargs)
    beta = rng.normal(scale=0.5, size=ds.p)
    return assemble_kernel(beta, structure, alpha, phi, ds)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
