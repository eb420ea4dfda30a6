import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinker_audit import quadrature

_COEFF = st.floats(-1.0, 1.0)
_CUBIC = st.tuples(_COEFF, _COEFF, _COEFF, _COEFF)


def _cubic(coeffs, a, b, s):
    """Cubic in t = (s - a)/(b - a) and its exact integral over [a, b]."""
    t = (s - a) / (b - a)
    c0, c1, c2, c3 = coeffs
    return c0 + c1 * t + c2 * t**2 + c3 * t**3, (b - a) * (c0 + c1 / 2 + c2 / 3 + c3 / 4)


@settings(max_examples=100, deadline=None)
@given(
    s_bar=st.floats(2.0, 60.0),
    density=st.integers(4, 32),
    coeffs=_CUBIC,
    data=st.data(),
)
def test_integrate_pieces_exact_on_cubics_over_audit_grid(s_bar, density, coeffs, data):
    s, grid_pieces = quadrature.audit_grid(s_bar, density)
    pieces = [(i0, i1, 1.0) for i0, i1 in grid_pieces]
    # split one piece at a node an even interval count from its end, the
    # shape of the scan's window; both parts keep >= 4 intervals, so their
    # 2x-coarsened rules stay exact on cubics
    splittable = [k for k, (i0, i1, _) in enumerate(pieces) if i1 - i0 >= 8]
    if splittable:
        k = data.draw(st.sampled_from(splittable))
        i0, i1, _ = pieces[k]
        cut = i1 - 2 * data.draw(st.integers(2, (i1 - i0) // 2 - 2))
        pieces[k : k + 1] = [(i0, cut, 1.0), (cut, i1, 1.0)]
    y, exact = _cubic(coeffs, 0.0, s_bar, s)
    total, err = quadrature.integrate_pieces(s, y, pieces)
    assert abs(total - exact) <= 1e-9 * max(1.0, abs(exact))
    assert err <= 1e-9


@pytest.mark.parametrize("s_bar, density, intervals",
                         [(1.5, 16, 64), (1.9, 200, 380), (1e-12, 16, 64)])
def test_short_path_grid_is_one_uniform_piece(s_bar, density, intervals):
    s, pieces = quadrature.audit_grid(s_bar, density)
    assert s.tobytes() == np.linspace(0.0, s_bar, intervals + 1).tobytes()
    assert pieces == ((0, intervals),)


@settings(max_examples=50, deadline=None)
@given(intervals=st.sampled_from([3, 5, 7, 15, 31]), length=st.floats(0.5, 20.0),
       coeffs=_CUBIC)
def test_integrate_pieces_odd_piece_falls_back_to_trapezoid(intervals, length, coeffs):
    s = np.linspace(1.0, 1.0 + length, intervals + 1)
    y, exact = _cubic(coeffs, s[0], s[-1], s)
    total, err = quadrature.integrate_pieces(s, y, [(0, intervals, 1.0)])
    # Simpson with a 3/8 tail stays exact; the estimate is the trapezoid gap
    assert abs(total - exact) <= 1e-9 * max(1.0, abs(exact))
    assert err == pytest.approx(abs(total - float(np.trapezoid(y, s))), rel=1e-12, abs=1e-15)
    flipped, flipped_err = quadrature.integrate_pieces(s, y, [(0, intervals, -1.0)])
    assert flipped == -total and flipped_err == err
