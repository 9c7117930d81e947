"""Every family against the outputs stored by make_reference_outputs.py.

The stored arrays compare at 1e-12 relative to each array's largest
magnitude, not bitwise, because BLAS kernels differ between CPUs; the
graph's edges, the labels and the splits compare exactly. A failure names
the case and array that drifted most in its family.
"""
import os

import numpy as np
import pytest

from graphfilt.harness.config import FAMILIES
from make_reference_outputs import CASES, DATA, case_parts, sbm_fixture

RTOL = 1e-12


@pytest.fixture(scope="module")
def stored():
    with np.load(os.path.join(DATA, "fixture.npz")) as fix, \
            np.load(os.path.join(DATA, "families.npz")) as fam:
        return ({k: fix[k] for k in fix.files},
                {k: fam[k] for k in fam.files})


@pytest.fixture(scope="module")
def dataset():
    return sbm_fixture()


def test_edges_labels_and_splits_are_exact(stored, dataset):
    _, arrays = dataset
    assert sorted(arrays) == sorted(stored[0])
    for key, want in stored[0].items():
        assert np.array_equal(arrays[key], want), key


def _drift(got, want):
    """Largest |got - want| relative to want's largest magnitude; inf
    where got is not finite."""
    if not np.isfinite(got).all():
        return np.inf
    scale = np.max(np.abs(want), initial=0.0)
    err = np.max(np.abs(got - want), initial=0.0)
    return err / scale if scale > 0 else err


def test_every_case_is_stored(stored):
    assert sorted(stored[1]) == sorted(case for case, _, _ in CASES)


@pytest.mark.parametrize("family", FAMILIES)
def test_family_matches_its_stored_outputs(family, stored, dataset):
    worst = []
    for case, _, arch in (c for c in CASES if c[1] == family):
        parts = case_parts(dataset[0], arch)
        flat = stored[1][case]
        sizes = [v.size for _, v in parts]
        assert sum(sizes) == flat.size, (
            f"{case}: {sum(sizes)} values computed, {flat.size} stored")
        ends = np.cumsum(sizes)
        worst += [(_drift(v.ravel(), flat[end - v.size:end]), case, label)
                  for (label, v), end in zip(parts, ends)]
    drift, case, label = max(worst)
    assert drift <= RTOL, (
        f"{family}: largest relative drift {drift:.3g} in {case} {label}")
