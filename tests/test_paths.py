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
