"""FD Dirichlet values of the L-shape against exact discrete eigenvalues.

On the unit L-shape with its notch at 1/2, and 1/(2h) an integer, every
grid function sin(2 p pi x) sin(2 q pi y) with p, q >= 1 vanishes on the
outer walls and on both notch lines x = 1/2 and y = 1/2.  So it is an
eigenvector of the 5-point Dirichlet Laplacian on the L-shape, and its
value is the product grid's (4/h^2)(sin^2(p pi h) + sin^2(q pi h)).
These values come from a closed form, not from speclab, and they pin
the operator, the symmetry classes and the solver on the benchmark's
main geometry.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from speclab.fdlab import fd_spectrum, lshape_domain
from speclab.spectra import ProblemKind

COUNT = 15


def product_values(h: float, top: float) -> list[tuple[int, int, float]]:
    """(p, q, value) of every product mode with a value at most ``top``."""
    modes = []
    for p in range(1, int(1 / (2 * h))):
        for q in range(1, int(1 / (2 * h))):
            value = 4.0 / h**2 * (math.sin(p * math.pi * h) ** 2 + math.sin(q * math.pi * h) ** 2)
            if value <= top:
                modes.append((p, q, value))
    return modes


@pytest.mark.parametrize("h", [1.0 / 40.0, 1.0 / 80.0], ids=["40", "80"])
class TestLshapeProductModes:
    def spectrum(self, h):
        return fd_spectrum(lshape_domain(1.0, 1.0, h, notch=0.5), ProblemKind.DIRICHLET, COUNT)

    def test_product_values_sit_at_their_indices(self, h):
        values = self.spectrum(h).values
        exact = {(p, q): value for p, q, value in product_values(h, math.inf)}
        # lambda_3 is (1, 1), lambda_8 = lambda_9 the pair (1, 2), (2, 1),
        # and lambda_14 is (2, 2)
        assert values[2] == pytest.approx(exact[1, 1], rel=1e-13)
        assert values[7] == pytest.approx(exact[1, 2], rel=1e-13)
        assert values[8] == pytest.approx(exact[2, 1], rel=1e-13)
        assert values[13] == pytest.approx(exact[2, 2], rel=1e-13)

    def test_every_product_value_is_held_with_its_multiplicity(self, h):
        values = self.spectrum(h).values
        modes = product_values(h, values[-1])
        assert len(modes) == 4
        for _, _, value in modes:
            close = np.isclose(values, value, rtol=1e-13, atol=0.0)
            twins = sum(math.isclose(other, value, rel_tol=1e-13) for _, _, other in modes)
            assert np.count_nonzero(close) >= twins
