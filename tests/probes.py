"""Experiment blocks that more than one test module runs."""

from __future__ import annotations

KINDS = ["neumann", "dirichlet", "clamped", "buckling"]

#: Two experiments on which ``fd_spectra`` asks one symmetry class of one
#: kind again, in a second round, keyed by their test ids.
REASK_PROBES = {
    "rectangle": {
        "name": "rect",
        "domain": {"type": "rect", "a": 1.0, "b": 0.6},
        "kinds": KINDS,
        "backend": {"type": "fd", "h": [0.025]},
        "count": 30,
    },
    "disk": {
        "name": "disk",
        "domain": {"type": "disk", "radius": 1.0},
        "kinds": KINDS,
        "backend": {"type": "fd", "h": [0.05]},
        "count": 40,
    },
}
