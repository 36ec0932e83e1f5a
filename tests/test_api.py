"""The package's public names: qgs.__all__ is what its programs run."""

import pytest

import qgs
from qgs import highcontrast, inverse, scattering

# test-side references (tests/conftest.py) and deleted wrappers
GONE = {
    inverse: ["f1_via_determinants", "f1_shrunk", "contraction_validation"],
    scattering: ["sigma_projected", "external_block", "scattering_solves_at"],
    highcontrast: ["DispersionTable", "build_dispersion_table"],
}


def test_all_has_no_duplicates():
    assert len(qgs.__all__) == len(set(qgs.__all__))


def test_every_exported_name_resolves():
    for name in qgs.__all__:
        assert getattr(qgs, name) is not None, name


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from qgs import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qgs.__all__)


@pytest.mark.parametrize("module", list(GONE), ids=lambda m: m.__name__)
def test_moved_and_deleted_names_are_not_exported(module):
    for name in GONE[module]:
        assert name not in qgs.__all__
        assert not hasattr(qgs, name)
        assert not hasattr(module, name)
