import numpy as np
import pytest

from shrinker_audit.paths import PhiPath


def _path(pieces):
    s = np.linspace(0.0, 4.0, 9)
    zero = np.zeros((9, 1))
    return PhiPath(s, zero, zero, pieces=pieces)


def test_no_pieces_means_one_piece_over_the_grid():
    assert _path(()).pieces == ((0, 8),)
    assert _path([(0, 2), (2, 8)]).pieces == ((0, 2), (2, 8))


@pytest.mark.parametrize(
    "pieces",
    [((0, 4), (5, 8)), ((0, 5), (4, 8)), ((0, 4), (4, 9)), ((1, 8),), ((0, 4), (4, 4), (4, 8))],
    ids=["gap", "overlap", "past-the-grid", "late-start", "empty-piece"],
)
def test_pieces_must_cover_the_grid_consecutively(pieces):
    with pytest.raises(ValueError, match="do not cover the grid"):
        _path(pieces)


@pytest.mark.parametrize("s, pieces", [
    ([0.0, 1.0, 3.0], [(0, 2)]),
    ([0.0, 1.0, 2.0, 3.0, 4.0, 6.0], [(0, 5)]),  # an odd interval count
    ([0.0, 1.0, 2.0, 3.0, 5.0], [(0, 2), (2, 4)]),  # only the second is not uniform
], ids=["even", "odd", "second-piece"])
def test_path_refuses_a_non_uniform_piece(s, pieces):
    zero = np.zeros((len(s), 1))
    i0, i1 = pieces[-1]  # the piece that is not uniform
    with pytest.raises(ValueError, match=rf"piece \({i0}, {i1}\) is not a uniform grid"):
        PhiPath(s, zero, zero, pieces=pieces)
