import numpy as np
import pytest

from shrinker_audit import models


def catalog():
    return [
        models.gaussian(3),
        models.round_sphere(3),
        models.sphere_cylinder(2, 2),
        models.sphere_product(2, 2),
    ]


@pytest.fixture(params=catalog(), ids=lambda m: m.label)
def model(request):
    return request.param


def random_tangent(model, pos, rng):
    """A random tangent vector at ``pos``: a normal draw with its normal part removed."""
    return models.project_tangent(model, pos, rng.normal(size=model.ambient_dim))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
