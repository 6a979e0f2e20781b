"""Experiment blocks that more than one test module, or `same_outputs.py`, runs."""

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

#: One config with every check type on every backend it takes: an analytic
#: rod, an analytic disk with an unjudged heat time and clamped weyl, a
#: two-width fd rod, and an fd rect whose weyl window passes the trusted edge.
ALL_CHECKS_BLOCKS = [
    {
        "name": "rod",
        "domain": {"type": "interval", "length": 2.0},
        "kinds": KINDS,
        "backend": {"type": "analytic"},
        "count": 400,
        "checks": [
            {"type": "chain"},
            {"type": "counting-chain", "taus": [0.5, 10.0, 100.0, 1000.0]},
            {"type": "payne"},
            {"type": "weyl", "kind": "dirichlet"},
            {"type": "weyl", "kind": "dirichlet", "rtol": 0.05},
            {"type": "heat", "kind": "neumann"},
        ],
    },
    {
        "name": "disk",
        "domain": {"type": "disk", "radius": 1.0},
        "kinds": KINDS,
        "backend": {"type": "analytic"},
        "count": 300,
        "checks": [
            {"type": "weyl2", "kind": "dirichlet"},
            {"type": "heat", "kind": "dirichlet", "times": [0.03, 0.05, 5.0]},
            {"type": "weyl", "kind": "clamped"},
            {
                "type": "sharpness",
                "caps": [{"delta": 2.0, "points": 500}, {"delta": 1.0, "points": 500}],
            },
        ],
    },
    {
        "name": "fdrod",
        "domain": {"type": "interval", "length": 2.0},
        "kinds": KINDS,
        "backend": {"type": "fd", "h": [0.02, 0.01]},
        "count": 6,
        "checks": [
            {"type": "chain"},
            {"type": "payne"},
            {"type": "counting-chain"},
            {"type": "decomposition", "parts": [{"type": "interval", "length": 2.0}]},
        ],
    },
    {
        "name": "fdrect",
        "domain": {"type": "rect", "a": 1.0, "b": 0.5},
        "kinds": ["dirichlet"],
        "backend": {"type": "fd", "h": [0.05]},
        "checks": [{"type": "weyl", "kind": "dirichlet", "window": [1.0, 1e5]}],
    },
]
