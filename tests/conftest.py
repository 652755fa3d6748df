"""Shared corpus of compatible pairs and negative controls, and the
Hermite indicator the spectral projectors are tested against."""

import pytest

from geoequiv.equiv import (
    LeviCivitaSpec,
    MultiBlock,
    SimpleEigenvalue,
    levi_civita_pair,
)
from geoequiv.fields import Chart, MetricField
from geoequiv.smallmat import ScalarFunction


def _iv(half=0.4):
    return (-half, half)


CORPUS_SPECS = {
    # n = 2
    "lc2_sin": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("1 + 0.1*sin(x0)", _iv(0.5)),
            SimpleEigenvalue("2", _iv(0.5)),
        ),
        blocks=(),
    ),
    "lc2_exp": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("exp(0.2*x0)", _iv()),
            SimpleEigenvalue("-1", _iv()),
        ),
        blocks=(),
    ),
    "lc2_lin": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("1 + 0.1*x0", _iv()),
            SimpleEigenvalue("3 + 0.05*x0", _iv()),
        ),
        blocks=(),
    ),
    "lc2_weyl": LeviCivitaSpec(
        simple=(),
        blocks=(
            MultiBlock(
                3.0,
                2,
                (("1", "0.2*x1"), (None, "1.5 + 0.1*x0^2")),
                (_iv(), _iv()),
            ),
        ),
    ),
    "lc2_wide": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("2 + 0.3*sin(x0)", _iv()),
            SimpleEigenvalue("4 + 0.2*x0", _iv()),
        ),
        blocks=(),
    ),
    # n = 3
    "lc3_simple": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("1 + 0.1*sin(x0)", _iv()),
            SimpleEigenvalue("2 + 0.1*x0", _iv()),
            SimpleEigenvalue("3.5", _iv()),
        ),
        blocks=(),
    ),
    "lc3_mixed": LeviCivitaSpec(
        simple=(SimpleEigenvalue("1 + 0.1*sin(x0)", _iv()),),
        blocks=(
            MultiBlock(
                4.0,
                2,
                (("1", "0.2*x1"), (None, "1.5 + 0.1*x0^2")),
                (_iv(), _iv()),
            ),
        ),
    ),
    "lc3_sig": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("-1 - 0.1*x0", _iv(), sign=-1),
            SimpleEigenvalue("2 + 0.2*cos(x0)", _iv()),
            SimpleEigenvalue("5", _iv()),
        ),
        blocks=(),
    ),
    # n = 4
    "lc4_simple": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("1 + 0.1*x0", _iv(0.3)),
            SimpleEigenvalue("2 + 0.1*sin(x0)", _iv(0.3)),
            SimpleEigenvalue("3.3 + 0.1*cos(x0)", _iv(0.3)),
            SimpleEigenvalue("5", _iv(0.3)),
        ),
        blocks=(),
    ),
    "lc4_mixed": LeviCivitaSpec(
        simple=(
            SimpleEigenvalue("1 + 0.1*x0", _iv(0.3)),
            SimpleEigenvalue("2 + 0.1*sin(x0)", _iv(0.3)),
        ),
        blocks=(
            MultiBlock(
                5.0,
                2,
                (("1", "0.1*x0*x1"), (None, "1.2")),
                (_iv(0.3), _iv(0.3)),
            ),
        ),
    ),
    "lc4_two_blocks": LeviCivitaSpec(
        simple=(),
        blocks=(
            MultiBlock(
                2.0,
                2,
                (("1", "0.1*x1"), (None, "1.3 + 0.1*x0^2")),
                (_iv(0.3), _iv(0.3)),
            ),
            MultiBlock(
                5.0,
                2,
                (("1.1", "0"), (None, "0.9 + 0.05*x1^2")),
                (_iv(0.3), _iv(0.3)),
            ),
        ),
    ),
    "lc4_block3": LeviCivitaSpec(
        simple=(SimpleEigenvalue("1 + 0.1*x0", _iv(0.3)),),
        blocks=(
            MultiBlock(
                3.0,
                3,
                (
                    ("1", "0", "0.1*x2"),
                    (None, "1 + 0.2*x0^2", "0"),
                    (None, None, "2"),
                ),
                (_iv(0.3), _iv(0.3), _iv(0.3)),
            ),
        ),
    ),
}

# names of corpus entries whose pair tensor has at least two distinct
# eigenvalue groups (splittable)
SPLITTABLE = [
    name for name, spec in CORPUS_SPECS.items()
    if len(spec.simple) + len(spec.blocks) >= 2
]


def hermite_indicator(group1, group2):
    """Scalar function equal to 1 within a quarter of the gap of the
    eigenvalues ``group1`` and 0 within that distance of ``group2``, with
    every derivative zero; through ``matrix_function`` it gives the
    spectral projector onto the invariant subspace of ``group1``."""
    g1 = [complex(z) for z in group1]
    g2 = [complex(z) for z in group2]
    radius = 0.25 * min(abs(z - w) for z in g1 for w in g2)

    def dist(z, grp):
        return min(abs(z - w) for w in grp)

    return ScalarFunction(
        "indicator",
        lambda z: 1.0 + 0.0j if dist(z, g1) < dist(z, g2) else 0.0 + 0.0j,
        lambda z, k: 0.0 + 0.0j,
        lambda z: min(dist(z, g1), dist(z, g2)) <= radius,
    )


def build_pair(name):
    return levi_civita_pair(CORPUS_SPECS[name])


def negative_pairs():
    """Deliberately non-equivalent pairs for margin checks."""
    out = {}
    c2 = Chart(2, ((-0.4, 0.4), (-0.4, 0.4)), (0.0, 0.0))
    out["neg2_exp"] = (
        MetricField.from_exprs(c2, [["1", "0"], ["0", "1"]]),
        MetricField.from_exprs(c2, [["exp(x0)", "0"], ["0", "1"]]),
    )
    out["neg2_swap"] = (
        MetricField.from_exprs(c2, [["1", "0"], ["0", "1 + 0.5*x0^2"]]),
        MetricField.from_exprs(c2, [["1 + 0.5*x1^2", "0"], ["0", "1"]]),
    )
    c3 = Chart(3, ((-0.4, 0.4),) * 3, (0.0, 0.0, 0.0))
    out["neg3_bump"] = (
        MetricField.from_exprs(
            c3, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        ),
        MetricField.from_exprs(
            c3,
            [
                ["1 + x0^2", "0", "0"],
                ["0", "1", "0"],
                ["0", "0", "1 + 0.3*x1^2"],
            ],
        ),
    )
    return out


@pytest.fixture(scope="session")
def corpus():
    """name -> (g, gbar) for every corpus spec."""
    return {name: build_pair(name) for name in CORPUS_SPECS}


@pytest.fixture(scope="session")
def negatives():
    return negative_pairs()
