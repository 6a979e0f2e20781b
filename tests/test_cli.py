"""End-to-end runs of the configuration-driven command line."""

from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from speclab import fdlab
from speclab.cli import (
    BACKENDS,
    BLOCK_FIELDS,
    CAP_FIELDS,
    CHECK_FIELDS,
    CHECKS,
    DOMAINS,
    MAX_CAP_POINTS,
    MAX_CHAIN_POINTS,
    MAX_COUNT,
    MAX_GRID_NODES,
    REQUIRED,
    TOP_FIELDS,
    ConfigError,
    main,
    parse_config,
    run_config,
)
from speclab.fdlab import (
    CapDomain,
    DegenerateDomainError,
    assemble_laplacian,
    disk_domain,
    read_mask_file,
)
from speclab.spectra import ProblemKind

ROOT = Path(__file__).resolve().parents[1]

#: The unit L-shape with its notch at 1/2, at h = 1/8, as a mask file.
ELL_MASK = "h 0.125\n" + "#######\n" * 3 + "###....\n" * 4


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def interval_block(name="rod", checks=None, count=10):
    return {
        "name": name,
        "domain": {"type": "interval", "length": 2.0},
        "kinds": ["neumann", "dirichlet", "clamped", "buckling"],
        "backend": {"type": "analytic"},
        "count": count,
        "checks": checks or [],
    }


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)
KINDS = ["neumann", "dirichlet", "clamped", "buckling"]
VALID_BLOCKS = [
    interval_block(checks=[{"type": t} for t in ("chain", "counting-chain", "payne", "heat")]),
    {
        "name": "plate",
        "domain": {"type": "lshape", "a": 1.0, "b": 1.0, "notch": 0.5, "corner": [0, 0]},
        "kinds": KINDS,
        "backend": {"type": "fd", "h": [0.2, 0.125]},
        "checks": [
            {"type": "decomposition", "parts": [{"type": "rect", "a": 0.5, "b": 1.0}], "count": 3},
            {"type": "counting-chain", "taus": [1.0, 2.0], "points": 5},
        ],
    },
    {
        "name": "disk",
        "domain": {"type": "disk", "radius": 1.0, "center": [0, 0]},
        "kinds": KINDS,
        "backend": {"type": "analytic"},
        "checks": [
            {"type": "sharpness", "caps": [{"delta": 2.0, "points": 100}]},
            {"type": "heat", "kind": "dirichlet", "times": [0.1], "volume": 3.0, "rtol": 0.1},
        ],
    },
    {
        "name": "cap",
        "domain": {"type": "cap", "delta": 1.0},
        "kinds": ["neumann", "dirichlet"],
        "backend": {"type": "cap", "points": 100},
        "count": 4,
        "checks": [{"type": "weyl", "window": [1.0, 50.0], "volume": 2.9}],
    },
    {
        "name": "file",
        "domain": {"type": "mask", "path": "ell.mask"},
        "kinds": KINDS,
        "backend": {"type": "fd"},
    },
]


@pytest.fixture(scope="module")
def valid_blocks(tmp_path_factory):
    """VALID_BLOCKS, their mask file written as ELL_MASK and named by its full path."""
    path = tmp_path_factory.mktemp("valid") / "ell.mask"
    path.write_text(ELL_MASK)
    blocks = copy.deepcopy(VALID_BLOCKS)
    blocks[-1]["domain"]["path"] = str(path)
    return blocks


def mutate(node, data) -> None:
    """Replace or drop one value somewhere inside ``node`` with arbitrary JSON."""
    while node:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.integers(0, 3)):
            node = child
        elif isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = data.draw(JSON)
            return


def config_objects(config):
    """Every object of ``config`` with its schema, the top level first."""
    yield config, TOP_FIELDS
    for block in config["experiments"]:
        yield block, BLOCK_FIELDS
        yield block["domain"], DOMAINS[block["domain"]["type"]].fields
        yield block["backend"], BACKENDS[block["backend"]["type"]]
        for check in block.get("checks", []):
            fields = CHECKS[check["type"]].fields
            yield check, {key: (default, CHECK_FIELDS[key]) for key, default in fields.items()}
            yield from ((part, DOMAINS[part["type"]].fields) for part in check.get("parts", []))
            yield from ((cap, CAP_FIELDS) for cap in check.get("caps", []))


def plain(node):
    """``node`` with every dataclass and array turned into values that compare by ==."""
    if isinstance(node, np.ndarray):
        return node.shape, node.tobytes()
    if dataclasses.is_dataclass(node):
        return type(node).__name__, plain(vars(node))
    if isinstance(node, dict):
        return {key: plain(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [plain(value) for value in node]
    return node


def parsed(config: dict):
    """The experiments ``config`` parses to, as plain values, or the ConfigError text."""
    try:
        return plain(parse_config(json.dumps(config)))
    except ConfigError as exc:
        return str(exc)


class TestParseConfig:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_any_json_experiment_list_parses_or_raises_config_error(self, valid_blocks, data):
        # parse only: valid blocks with a few values replaced or dropped, and
        # maybe one arbitrary entry, give experiments or ConfigError, nothing else
        blocks = data.draw(st.lists(st.sampled_from(valid_blocks), min_size=1, unique_by=id))
        experiments = copy.deepcopy(blocks)
        for _ in range(data.draw(st.integers(1, 3))):
            mutate(data.draw(st.sampled_from(experiments)), data)
        experiments += data.draw(st.lists(JSON, max_size=1))
        try:
            parsed = parse_config(json.dumps({"experiments": experiments}))
        except ConfigError:
            return
        assert isinstance(parsed, list)

    def test_property_test_starts_from_valid_blocks(self, valid_blocks):
        assert len(parse_config(json.dumps({"experiments": valid_blocks}))) == len(VALID_BLOCKS)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_an_unknown_field_in_any_object_is_refused_by_name(self, valid_blocks, data):
        config = {"experiments": copy.deepcopy(valid_blocks)}
        node, schema = data.draw(st.sampled_from(list(config_objects(config))))
        key = data.draw(st.text(max_size=8).filter(lambda k: k != "type" and k not in schema))
        node[key] = data.draw(JSON)
        with pytest.raises(ConfigError, match=re.escape(f" has no field {key!r}, only [")):
            parse_config(json.dumps(config))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_null_field_parses_as_if_left_out(self, valid_blocks, data):
        config = {"experiments": copy.deepcopy(valid_blocks)}
        fields = [
            (node, key)
            for node, schema in config_objects(config)
            for key, (default, _) in schema.items()
            if default is not REQUIRED
        ]
        node, key = data.draw(st.sampled_from(fields))
        node[key] = None
        nulled = parsed(config)
        del node[key]
        assert parsed(config) == nulled

    def test_minimal_config(self):
        exps = parse_config(json.dumps({"experiments": [interval_block()]}))
        assert len(exps) == 1
        assert exps[0].name == "rod"
        assert exps[0].count == 10

    def test_reports_json_error_position(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config('{"experiments": [,]}')

    def test_duplicate_names_rejected(self):
        block = interval_block()
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(json.dumps({"experiments": [block, block]}))

    def test_unknown_check_rejected(self):
        block = interval_block(checks=[{"type": "outlandish"}])
        with pytest.raises(ConfigError, match="unknown check"):
            parse_config(json.dumps({"experiments": [block]}))

    def test_chain_needs_all_kinds(self):
        block = interval_block(checks=[{"type": "chain"}])
        block["kinds"] = ["dirichlet", "buckling"]
        with pytest.raises(ConfigError, match="four"):
            parse_config(json.dumps({"experiments": [block]}))

    def test_rect_analytic_membrane_only(self):
        block = {
            "name": "sq",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": ["clamped"],
            "backend": {"type": "analytic"},
        }
        with pytest.raises(ConfigError, match="membrane"):
            parse_config(json.dumps({"experiments": [block]}))

    def test_cap_backend_kinds_come_from_the_domain_table(self):
        block = {
            "name": "cap",
            "domain": {"type": "cap", "delta": 1.0},
            "kinds": ["dirichlet", "clamped"],
            "backend": {"type": "cap"},
        }
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({"experiments": [block]}))
        assert str(info.value) == (
            "experiments[0]: cap spectra on a cap domain cover the membrane "
            "problems only, not ['clamped']"
        )

    def test_fd_needs_h_list_except_for_masks(self):
        block = {
            "name": "sq",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": ["dirichlet"],
            "backend": {"type": "fd"},
        }
        with pytest.raises(ConfigError, match="'h'"):
            parse_config(json.dumps({"experiments": [block]}))
        block["backend"] = {"type": "fd", "h": [0.1]}
        parse_config(json.dumps({"experiments": [block]}))
        mask_block = {
            "name": "m",
            "domain": {"type": "mask", "path": "x.mask"},
            "kinds": ["dirichlet"],
            "backend": {"type": "fd", "h": [0.1]},
        }
        # a mask file carries its own mesh width
        with pytest.raises(ConfigError, match=re.escape("fd backend has no field 'h', only []")):
            parse_config(json.dumps({"experiments": [mask_block]}))

    def test_weyl2_rejects_fd_backend(self):
        block = {
            "name": "sq",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": ["dirichlet"],
            "backend": {"type": "fd", "h": [0.1]},
            "checks": [{"type": "weyl2"}],
        }
        with pytest.raises(ConfigError, match="analytic"):
            parse_config(json.dumps({"experiments": [block]}))

    def test_string_mesh_width_rejected(self, tmp_path, capsys):
        block = {
            "name": "sq",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": ["dirichlet"],
            "backend": {"type": "fd", "h": ["0.1"]},
        }
        with pytest.raises(ConfigError, match="'h'"):
            parse_config(json.dumps({"experiments": [block]}))
        config = write_config(tmp_path, {"experiments": [block]})
        assert main(["spectrum", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "speclab:" in capsys.readouterr().err

    @pytest.mark.parametrize("hs", [[0.25, 0.25], [0.25, 0.125, 0.25]])
    def test_repeated_mesh_width_rejected(self, tmp_path, capsys, hs):
        # one grid solved twice would write every row twice and give the
        # chain check a two-grid uncertainty of exactly 0
        block = {
            "name": "sq",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": KINDS,
            "backend": {"type": "fd", "h": hs},
            "checks": [{"type": "chain"}],
        }
        message = "fd backend 'h' must be a nonempty list of distinct positive numbers"
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps({"experiments": [block]}))
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", [True, False, 2.0, "6", 0])
    def test_count_must_be_a_positive_integer(self, tmp_path, count):
        block = interval_block()
        block["count"] = count
        with pytest.raises(ConfigError, match="'count'"):
            parse_config(json.dumps({"experiments": [block]}))
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "domain, missing",
        [
            ({"type": "rect", "b": 1.0}, "'a'"),
            ({"type": "lshape", "a": 1.0}, "'b'"),
            ({"type": "interval"}, "'length'"),
            ({"type": "cap"}, "'delta'"),
            ({"type": "mask"}, "'path'"),
            ({"type": "rect", "a": True, "b": 1.0}, "'a'"),
            ({"type": "disk", "radius": "1"}, "'radius'"),
            ({"type": "disk", "center": [0.0, False]}, "'center'"),
            ({"type": "rect", "a": 1.0, "b": 1.0, "corner": ["x", 0.0]}, "'corner'"),
        ],
    )
    def test_domain_fields_checked_before_running(self, domain, missing):
        backend = {"cap": {"type": "cap"}, "mask": {"type": "fd"}}.get(
            domain["type"], {"type": "fd", "h": [0.25]}
        )
        block = {"name": "d", "domain": domain, "kinds": ["dirichlet"], "backend": backend}
        with pytest.raises(ConfigError, match=missing):
            parse_config(json.dumps({"experiments": [block]}))

    # a JSON integer too large for a float made math.isfinite raise
    # OverflowError, a traceback and exit 1, before
    HUGE = 10**400

    @pytest.mark.parametrize(
        "field, message",
        [
            ("a", r"rect domain 'a' must be a length in \[0.001, 1000\]"),
            ("h", "fd backend 'h' must be a nonempty list of distinct positive numbers"),
            ("rtol", "weyl 'rtol' must be a nonnegative number"),
        ],
    )
    def test_number_too_large_for_a_float(self, tmp_path, capsys, field, message):
        block = {
            "name": "sq",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": ["dirichlet"],
            "backend": {"type": "fd", "h": [0.25]},
            "checks": [{"type": "weyl", "rtol": 0.5}],
        }
        if field == "a":
            block["domain"]["a"] = self.HUGE
        elif field == "h":
            block["backend"]["h"] = [0.25, self.HUGE]
        else:
            block["checks"][0]["rtol"] = self.HUGE
        text = json.dumps({"experiments": [block]})
        assert "1" + "0" * 400 in text
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("speclab: experiments[0]")
        assert not out.exists()

    @staticmethod
    def sized_block(field: str, size: int) -> dict:
        """A block asking for ``size`` at ``field``: count, cap, chain or sharpness points."""
        if field == "count":
            return interval_block(count=size)
        if field == "points":
            return {**cap_block([]), "backend": {"type": "cap", "points": size}}
        if field == "chain":
            return interval_block(checks=[{"type": "counting-chain", "points": size}])
        caps = [{"delta": 2.0, "points": size}]
        return analytic_block(DISK, KINDS, [{"type": "sharpness", "caps": caps}])

    # a count of 10**400 on an analytic interval failed inside the run with
    # "Maximum allowed size exceeded", and cap points of 10**400 with an
    # OverflowError, before, as did counting-chain points of 10**51; these
    # sizes are refused, never run
    @pytest.mark.parametrize(
        "field, size, message",
        [
            ("count", MAX_COUNT + 1, rf"experiment 'count' must be an integer in \[1, {MAX_COUNT}\]"),
            ("count", HUGE, rf"experiment 'count' must be an integer in \[1, {MAX_COUNT}\]"),
            ("points", MAX_CAP_POINTS + 1, rf"cap backend 'points' must be an integer in \[8, {MAX_CAP_POINTS}\]"),
            ("points", HUGE, rf"cap backend 'points' must be an integer in \[8, {MAX_CAP_POINTS}\]"),
            ("caps", HUGE, rf"caps\[0\]: cap 'points' must be an integer in \[8, {MAX_CAP_POINTS}\]"),
            ("chain", MAX_CHAIN_POINTS + 1, rf"'points' must be an integer in \[2, {MAX_CHAIN_POINTS}\]"),
            ("chain", 10**51, rf"counting-chain 'points' must be an integer in \[2, {MAX_CHAIN_POINTS}\]"),
        ],
    )
    def test_sizes_above_their_ceilings_exit_2(self, tmp_path, capsys, field, size, message):
        block = self.sized_block(field, size)
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps({"experiments": [block]}))
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("speclab: experiments[0]") and re.search(message, err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, size",
        [
            ("count", MAX_COUNT),
            ("points", MAX_CAP_POINTS),
            ("caps", MAX_CAP_POINTS),
            ("chain", MAX_CHAIN_POINTS),
        ],
    )
    def test_sizes_at_their_ceilings_are_accepted(self, field, size):
        (exp,) = parse_config(json.dumps({"experiments": [self.sized_block(field, size)]}))
        if field == "count":
            assert exp.count == size
        elif field == "points":
            assert exp.backend["cap"].points == size
        elif field == "chain":
            assert exp.checks[0]["points"] == size
        else:
            assert exp.checks[0]["caps"][0].points == size

    # a count of 50 on the unit square at h = 0.2 failed inside the run
    # with "requested 50 eigenvalues but the grid has 16 unknowns", before
    @pytest.mark.parametrize(
        "domain, h, unknowns",
        [
            ({"type": "interval", "length": 1.0}, 0.05, 19),
            ({"type": "rect", "a": 1.0, "b": 1.0}, 0.2, 16),
            ({"type": "disk", "radius": 1.0}, 0.25, 45),
            ({"type": "lshape", "a": 1.0, "b": 1.0}, 0.125, 33),
        ],
    )
    def test_count_above_the_coarsest_grid_exits_2(self, tmp_path, capsys, domain, h, unknowns):
        block = {"name": "tiny", "domain": domain, "kinds": ["dirichlet"]}
        block["backend"] = {"type": "fd", "h": [h / 2, h]}
        block["count"] = unknowns
        (exp,) = parse_config(json.dumps({"experiments": [block]}))
        assert DOMAINS[domain["type"]].grid(exp.domain, h).n_unknowns == unknowns
        block["count"] = unknowns + 1
        message = f"'count' {unknowns + 1} exceeds the {unknowns} unknowns of the {domain['type']}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(json.dumps({"experiments": [block]}))
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("speclab: experiments[0] ('tiny')") and message in err
        assert not out.exists()

    def test_decomposition_parts_are_checked(self):
        block = {
            "name": "split",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": ["buckling"],
            "backend": {"type": "fd", "h": [0.25]},
            "checks": [{"type": "decomposition", "parts": [{"type": "rect", "a": 0.5}]}],
        }
        with pytest.raises(ConfigError, match=r"parts\[0\].*'b'"):
            parse_config(json.dumps({"experiments": [block]}))

    @pytest.mark.parametrize(
        "domain, coarse, unknowns, fine",
        [
            ({"type": "interval", "length": 1.0}, 0.2, 4, 0.1),
            ({"type": "rect", "a": 1.0, "b": 1.0}, 1.0, 0, 0.25),
            ({"type": "disk", "radius": 1.0}, 0.75, 5, 0.7),
            ({"type": "lshape", "a": 1.0, "b": 1.0}, 0.25, 5, 0.2),
        ],
    )
    def test_fd_h_too_coarse_for_the_domain_rejected(self, domain, coarse, unknowns, fine):
        # the parse-time rule is the grid builder's: the coarse h fails to
        # build and the fine one builds, at the fewest unknowns allowed
        block = {"name": "coarse", "domain": domain, "kinds": ["dirichlet"]}
        block["backend"] = {"type": "fd", "h": [fine, coarse]}
        size = ", ".join(f"{k}=1" for k in ("length", "a", "b", "radius") if k in domain)
        message = (
            rf"experiments\[0\] \('coarse'\): h={coarse:g} is too coarse for the "
            rf"{domain['type']} domain \({size}.*\): it resolves to {unknowns} unknowns"
        )
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps({"experiments": [block]}))
        block["backend"]["h"] = [fine]
        (exp,) = parse_config(json.dumps({"experiments": [block]}))
        spec = DOMAINS[domain["type"]]
        assert spec.grid(exp.domain, fine).n_unknowns >= 9
        with pytest.raises(DegenerateDomainError):
            spec.grid(exp.domain, coarse)

    def test_overflowing_disk_h_rejected_without_a_warning(self):
        # the squared coordinates of every node but the centre overflow to inf
        block = {"name": "coarse", "domain": {"type": "disk", "radius": 1.0}, "kinds": ["dirichlet"]}
        block["backend"] = {"type": "fd", "h": [1e300]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="it resolves to 1 unknowns"):
                parse_config(json.dumps({"experiments": [block]}))
            with pytest.raises(DegenerateDomainError):
                disk_domain(1.0, 1e300)

    def test_decomposition_part_too_coarse_at_the_finest_h(self, tmp_path, capsys):
        # the parts are meshed at the finest h only, so the coarser level is fine
        parts = [
            {"type": "rect", "a": 0.5, "b": 1.0},
            {"type": "rect", "a": 0.5, "b": 1.0, "corner": [0.5, 0.0]},
        ]
        block = {
            "name": "split",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": ["buckling"],
            "backend": {"type": "fd", "h": [0.125, 0.25]},
            "count": 3,
            "checks": [{"type": "decomposition", "parts": parts}],
        }
        parse_config(json.dumps({"experiments": [block]}))
        block["backend"]["h"] = [0.25]
        message = (
            "experiments[0].checks[0]: parts[0]: h=0.25 is too coarse for the rect domain "
            "(a=0.5, b=1): it resolves to 3 unknowns, at least 9 are required"
        )
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(json.dumps({"experiments": [block]}))
        config = write_config(tmp_path, {"experiments": [block]})
        assert main(["verify", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_check_numbers_rejected_when_not_numbers(self):
        for field, value in [("rtol", True), ("window", [1.0, "9"]), ("points", "50")]:
            block = interval_block(checks=[{"type": "weyl", field: value}])
            with pytest.raises(ConfigError, match=repr(field)):
                parse_config(json.dumps({"experiments": [block]}))

    @pytest.mark.parametrize("window", [[5.0], [1, 5, 9], [9.0, 5.0], [-1.0, 5.0], []])
    def test_window_must_be_an_increasing_pair(self, window):
        block = interval_block(checks=[{"type": "weyl", "window": window}])
        with pytest.raises(ConfigError, match=r"'window' must be a pair \[lo, hi\]"):
            parse_config(json.dumps({"experiments": [block]}))

    def test_repeated_kinds_rejected(self):
        block = interval_block()
        block["kinds"] = ["dirichlet", "buckling", "dirichlet"]
        with pytest.raises(ConfigError, match="experiment 'kinds' must be a nonempty list of distinct"):
            parse_config(json.dumps({"experiments": [block]}))

    @pytest.mark.parametrize(
        "part", [{"type": "cap", "delta": 1.0}, {"type": "mask", "path": "half.mask"}]
    )
    def test_decomposition_parts_need_an_fd_grid(self, part):
        block = {
            "name": "split",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": ["buckling"],
            "backend": {"type": "fd", "h": [0.25]},
            "checks": [{"type": "decomposition", "parts": [part]}],
        }
        with pytest.raises(ConfigError, match=rf"parts\[0\]: no fd grid for domain type '{part['type']}'"):
            parse_config(json.dumps({"experiments": [block]}))

    @pytest.mark.parametrize(
        "kinds, check_count, message",
        [
            (["dirichlet"], None, "decomposition needs the buckling spectrum"),
            (["dirichlet", "buckling"], 8, "decomposition 'count' exceeds the experiment's 6"),
        ],
    )
    def test_decomposition_reads_the_experiments_buckling_spectrum(
        self, tmp_path, capsys, kinds, check_count, message
    ):
        check = {
            "type": "decomposition",
            "parts": [
                {"type": "rect", "a": 0.5, "b": 1.0},
                {"type": "rect", "a": 0.5, "b": 1.0, "corner": [0.5, 0.0]},
            ],
        }
        if check_count is not None:
            check["count"] = check_count
        block = {
            "name": "split",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": kinds,
            "backend": {"type": "fd", "h": [0.125]},
            "count": 6,
            "checks": [check],
        }
        config = write_config(tmp_path, {"experiments": [block]})
        assert main(["verify", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_weyl2_rejected_on_an_interval(self, tmp_path, capsys):
        block = interval_block(checks=[{"type": "weyl2", "kind": "neumann"}], count=400)
        config = write_config(tmp_path, {"experiments": [block]})
        assert main(["weyl", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "weyl2 needs a 2-D domain" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cap, message",
        [
            ({"delta": "2.0"}, r"caps\[0\]: cap 'delta' must be an aperture in \(0, pi\)"),
            ({"delta": 2.0, "points": True}, r"caps\[0\]: cap 'points' must be an integer in"),
            (2.0, "sharpness 'caps' must be a list of cap objects"),
        ],
    )
    def test_sharpness_caps_checked(self, cap, message):
        block = {
            "name": "disk",
            "domain": {"type": "disk"},
            "kinds": ["neumann", "dirichlet", "clamped", "buckling"],
            "backend": {"type": "analytic"},
            "checks": [{"type": "sharpness", "caps": [cap]}],
        }
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps({"experiments": [block]}))

    def test_unhashable_type_names_rejected(self):
        block = interval_block()
        block["domain"] = {"type": ["interval"], "length": 2.0}
        with pytest.raises(ConfigError, match="domain type"):
            parse_config(json.dumps({"experiments": [block]}))
        block = interval_block(checks=[{"type": ["chain"]}])
        with pytest.raises(ConfigError, match="unknown check"):
            parse_config(json.dumps({"experiments": [block]}))


class TestMainRuns:
    def test_interval_spectrum_csv(self, tmp_path):
        config = write_config(tmp_path, {"experiments": [interval_block()]})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "rod.spectra.csv").read_text().splitlines()
        assert lines[0] == "k,kind,value,source,h"
        assert len(lines) == 1 + 4 * 10
        report = json.loads((out / "rod.report.json").read_text())
        assert report["ok"] is True
        assert report["checks"] == []
        assert report["domain"] == "interval(L=2)"

    def test_runs_are_deterministic(self, tmp_path):
        payload = {
            "experiments": [
                interval_block(),
                {
                    "name": "grid",
                    "domain": {"type": "rect", "a": 1.0, "b": 1.0},
                    "kinds": ["dirichlet", "neumann"],
                    "backend": {"type": "fd", "h": [0.125]},
                    "count": 4,
                },
            ]
        }
        config = write_config(tmp_path, payload)
        outs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            assert main(["report", "--config", str(config), "--out", str(out)]) == 0
            outs.append(out)
        for name in ("rod.spectra.csv", "rod.report.json", "grid.spectra.csv", "grid.report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_empty_experiment_list(self, tmp_path):
        config = write_config(tmp_path, {"experiments": []})
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        assert not out.exists()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text('{"experiments": [}')
        assert main(["report", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "speclab:" in err and "line" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["report", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_failing_asserted_check_exits_one(self, tmp_path):
        block = {
            "name": "sq",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": ["dirichlet"],
            "backend": {"type": "analytic"},
            "count": 200,
            "checks": [{"type": "weyl", "rtol": 1e-6}],
        }
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["weyl", "--config", str(config), "--out", str(out)]) == 1
        report = json.loads((out / "sq.report.json").read_text())
        assert report["ok"] is False
        assert report["checks"][0]["asserted"] is True
        assert report["checks"][0]["ok"] is False

    def test_runtime_error_is_isolated(self, tmp_path, capsys):
        bad = interval_block(
            name="bad", checks=[{"type": "weyl", "window": [1.0, 1e9]}]
        )
        payload = {"experiments": [bad, interval_block(name="good")]}
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 2
        bad_report = json.loads((out / "bad.report.json").read_text())
        assert bad_report["error"].startswith("TrustRangeError: window edge 1e+09")
        # stderr was empty, before
        assert capsys.readouterr().err == f"speclab: bad: {bad_report['error']}\n"
        assert not (out / "bad.spectra.csv").exists()
        good_report = json.loads((out / "good.report.json").read_text())
        assert good_report["ok"] is True
        assert (out / "good.spectra.csv").exists()

    def test_heat_check_that_judges_no_time_exits_2(self, tmp_path, capsys):
        # its one row, at a time past the short-time regime, was not judged,
        # and the check asserted ok false and exited 1, before
        block = interval_block(checks=[{"type": "heat", "times": [0.5]}], count=40)
        block.update(domain={"type": "interval", "length": 1.0}, kinds=["dirichlet"])
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 2
        report = json.loads((out / "rod.report.json").read_text())
        assert report["error"] == (
            "InsufficientDataError: no time in [0.5] is judged: each needs "
            "0.25*sqrt(4*pi*t)*boundary < volume, with boundary 2 and volume 1"
        )
        assert capsys.readouterr().err == f"speclab: rod: {report['error']}\n"
        assert not (out / "rod.spectra.csv").exists()

    def test_verb_filtering(self, tmp_path):
        block = interval_block(checks=[{"type": "chain"}, {"type": "weyl", "window": [10.0, 1000.0]}])
        block["count"] = 40
        config = write_config(tmp_path, {"experiments": [block]})
        out_verify = tmp_path / "verify"
        assert main(["verify", "--config", str(config), "--out", str(out_verify)]) == 0
        checks = json.loads((out_verify / "rod.report.json").read_text())["checks"]
        assert [c["check"] for c in checks] == ["chain"]
        out_weyl = tmp_path / "weyl"
        assert main(["weyl", "--config", str(config), "--out", str(out_weyl)]) == 0
        checks = json.loads((out_weyl / "rod.report.json").read_text())["checks"]
        assert [c["check"] for c in checks] == ["weyl"]

    def test_two_grid_uncertainty_reaches_report(self, tmp_path):
        block = {
            "name": "sq",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": ["neumann", "dirichlet", "clamped", "buckling"],
            "backend": {"type": "fd", "h": [0.0625, 0.03125]},
            "count": 4,
            "checks": [{"type": "chain"}],
        }
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "sq.report.json").read_text())
        chain = report["checks"][0]
        assert chain["ok"] is True
        assert set(chain["uncertainty"]) == {"neumann", "dirichlet", "clamped", "buckling"}
        assert all(u > 0 for u in chain["uncertainty"]["dirichlet"])
        lines = (out / "sq.spectra.csv").read_text().splitlines()
        # both grid levels are tabulated
        assert len(lines) == 1 + 2 * 4 * 4
        assert {line.split(",")[4] for line in lines[1:]} == {"0.0625", "0.03125"}

    def test_square_report_keeps_every_copy_of_a_multiple_value(self, tmp_path):
        # the unit square at h = 1/16 has 15 x 15 nodes and the Neumann
        # values 4/h^2 (sin^2(i pi / 30) + sin^2(j pi / 30)); 267.188428424
        # is fourfold, (i, j) = (1, 5), (5, 1), (3, 4), (4, 3), and from one
        # whole-grid start vector the report held three copies of it and
        # read 300.26 at index 28
        block = {
            "name": "sq",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": ["neumann"],
            "backend": {"type": "fd", "h": [0.0625]},
            "count": 30,
        }
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        with open(out / "sq.spectra.csv", newline="") as handle:
            values = [float(row["value"]) for row in csv.DictReader(handle)]
        line = 1024.0 * np.sin(np.arange(15) * math.pi / 30.0) ** 2
        expected = np.sort((line[:, None] + line[None, :]).ravel())[:30]
        assert np.allclose(values, expected, rtol=1e-11, atol=1e-9)
        assert values.count(267.188428424) == 4

    def test_decomposition_with_offset_parts(self, tmp_path):
        block = {
            "name": "split",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": ["buckling"],
            "backend": {"type": "fd", "h": [0.0625]},
            "count": 4,
            "checks": [
                {
                    "type": "decomposition",
                    "parts": [
                        {"type": "rect", "a": 0.5, "b": 1.0},
                        {"type": "rect", "a": 0.5, "b": 1.0, "corner": [0.5, 0.0]},
                    ],
                }
            ],
        }
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
        check = json.loads((out / "split.report.json").read_text())["checks"][0]
        assert check["ok"] is True
        assert all(row["margin"] > 0 for row in check["rows"])

    def test_decomposition_part_with_fewer_unknowns_than_count(self, tmp_path):
        # the 0.375 x 1 part has 14 unknowns at h = 1/8, one short of count
        block = {
            "name": "split",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": ["buckling"],
            "backend": {"type": "fd", "h": [0.125]},
            "count": 15,
            "checks": [
                {
                    "type": "decomposition",
                    "parts": [
                        {"type": "rect", "a": 0.375, "b": 1.0},
                        {"type": "rect", "a": 0.625, "b": 1.0, "corner": [0.375, 0.0]},
                    ],
                }
            ],
        }
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "split.report.json").read_text())
        assert report["ok"] is True
        assert [row["k"] for row in report["checks"][0]["rows"]] == list(range(1, 16))

    def test_mask_domain_through_cli(self, tmp_path):
        mask_path = tmp_path / "ell.mask"
        mask_path.write_text(ELL_MASK)
        block = {
            "name": "ell",
            "domain": {"type": "mask", "path": str(mask_path)},
            "kinds": ["dirichlet"],
            "backend": {"type": "fd"},
            "count": 4,
        }
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "ell.spectra.csv").read_text().splitlines()
        assert len(lines) == 5
        assert lines[1].split(",")[3] == "fd(h=0.125)"

    def test_twin_leaves_keep_their_neumann_value(self, tmp_path):
        # nodes (5, 3) and (5, 5), counted from 0, are leaves of the one
        # node (5, 4); e_a - e_b on them is a Neumann mode at 1/h^2 = 49
        # that no reflection of the whole mask sees, and from a constant
        # start vector the CSV skipped it and read the true mu_8 as mu_7
        mask_path = tmp_path / "twin.mask"
        mask_path.write_text(
            "h 0.14285714285714285\n"
            "######\n#####.\n######\n######\n###.#.\n#..###\n"
        )
        block = {
            "name": "twin",
            "domain": {"type": "mask", "path": str(mask_path)},
            "kinds": KINDS,
            "backend": {"type": "fd"},
            "count": 10,
        }
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        with open(out / "twin.spectra.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        neumann = [float(row["value"]) for row in rows if row["kind"] == "neumann"]
        assert neumann[6] == 49.0
        domain = read_mask_file(mask_path)
        lap = assemble_laplacian(domain, ProblemKind.NEUMANN).matrix.toarray()
        assert np.allclose(neumann, scipy.linalg.eigvalsh(lap)[:10], rtol=1e-11, atol=1e-10)

    def test_jobs_flag_is_gone(self, tmp_path):
        config = write_config(tmp_path, {"experiments": [interval_block()]})
        with pytest.raises(SystemExit) as info:
            main(["spectrum", "--config", str(config), "--jobs", "2"])
        assert info.value.code == 2


def cap_block(checks):
    return {
        "name": "cap",
        "domain": {"type": "cap", "delta": 1.0},
        "kinds": ["neumann", "dirichlet"],
        "backend": {"type": "cap", "points": 100},
        "count": 4,
        "checks": checks,
    }


def analytic_block(domain, kinds, checks, count=6):
    return {
        "name": domain["type"],
        "domain": domain,
        "kinds": kinds,
        "backend": {"type": "analytic"},
        "count": count,
        "checks": checks,
    }


SQUARE = {"type": "rect", "a": 1.0, "b": 1.0}
DISK = {"type": "disk", "radius": 1.0}


def mask_block(path, count=6, checks=None):
    return {
        "name": "file",
        "domain": {"type": "mask", "path": str(path)},
        "kinds": ["dirichlet", "buckling"],
        "backend": {"type": "fd"},
        "count": count,
        "checks": checks or [],
    }


def fd_block(domain, h):
    return {"name": "big", "domain": domain, "kinds": ["dirichlet"], "backend": {"type": "fd", "h": [h]}}


def exits_2(tmp_path, capsys, config, message):
    """A report of ``config`` exits 2 with one speclab: line holding ``message``, writing nothing."""
    out = tmp_path / "out"
    assert main(["report", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("speclab: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


class TestGridsBuiltWhileParsing:
    """Every fd grid is built, or its mask file read, once, by parse_config."""

    @staticmethod
    def refused(tmp_path, capsys, payload, message):
        """``payload`` fails to parse with ``message``, and its report exits 2."""
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(json.dumps(payload))
        exits_2(tmp_path, capsys, write_config(tmp_path, payload), message)

    @pytest.mark.parametrize(
        "domain, h, box",
        [
            (SQUARE, 1e-5, 99999**2),
            (DISK, 1e-4, 20001**2),
            ({"type": "interval", "length": 1.0}, 5e-324, sys.maxsize),
            (SQUARE, 5e-324, sys.maxsize**2),
            (DISK, 5e-324, (2 * sys.maxsize + 1) ** 2),
            ({"type": "lshape", "a": 1.0, "b": 1.0}, 5e-324, sys.maxsize**2),
        ],
        ids=["square-1e-5", "disk-1e-4", "interval-tiny", "square-tiny", "disk-tiny", "lshape-tiny"],
    )
    def test_box_above_the_ceiling_refused_before_building(
        self, tmp_path, capsys, monkeypatch, domain, h, box
    ):
        # the box is counted, saturating, and the grid is never built
        unbuilt = dataclasses.replace(DOMAINS[domain["type"]], grid=lambda d, h: pytest.fail("built"))
        monkeypatch.setitem(DOMAINS, domain["type"], unbuilt)
        message = f"h={h:g} meshes the {domain['type']} domain ("
        self.refused(tmp_path, capsys, {"experiments": [fd_block(domain, h)]}, message)
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({"experiments": [fd_block(domain, h)]}))
        assert f"in a box of {box} lattice nodes, above the grid ceiling of {MAX_GRID_NODES}" in str(
            info.value
        )

    def test_box_at_the_ceiling_accepted(self):
        # the largest grid of any shipped config, the L-shape at h = 1/320, parses
        lshape = fd_block({"type": "lshape", "a": 1.0, "b": 1.0, "notch": 0.5}, 1 / 320)
        assert parse_config(json.dumps({"experiments": [lshape]}))[0].grids[0].n_unknowns == 76161
        side = math.isqrt(MAX_GRID_NODES)
        domain = {"type": "rect", "a": 1.0, "b": 1.0}
        (exp,) = parse_config(json.dumps({"experiments": [fd_block(domain, 1.0 / (side + 1))]}))
        (grid,) = exp.grids
        assert grid.mask.shape == (side, side) and grid.mask.size == MAX_GRID_NODES
        block = fd_block(domain, 1.0 / (side + 2))
        with pytest.raises(ConfigError, match=f"box of {(side + 1) ** 2} lattice nodes"):
            parse_config(json.dumps({"experiments": [block]}))

    def test_count_above_a_mask_files_unknowns(self, tmp_path, capsys):
        # it failed inside the run with "requested 20 eigenvalues but the grid
        # has 9 unknowns", written to the report, before
        path = tmp_path / "nine.mask"
        path.write_text("h 0.25\n###\n###\n###\n")
        message = f"'count' 20 exceeds the 9 unknowns of the mask domain (path={str(path)!r}) at h=0.25"
        self.refused(tmp_path, capsys, {"experiments": [mask_block(path, count=20)]}, message)

    def test_mask_file_of_too_few_nodes(self, tmp_path, capsys):
        # refused as "cannot read the mask domain", before
        path = tmp_path / "eight.mask"
        path.write_text("h 0.25\n###\n#.#\n###\n")
        message = (
            f"experiments[0] ('file'): the mask domain (path={str(path)!r}) resolves to "
            "8 unknowns, at least 9 are required"
        )
        self.refused(tmp_path, capsys, {"experiments": [mask_block(path)]}, message)

    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file or directory"),
            (b"h 0.25\n\xff##\n###\n###\n", "'utf-8' codec can't decode byte 0xff"),
            (b"h 0.25\n###\n#x#\n###\n", "row 3 has invalid character 'x'"),
            (b"###\n###\n###\n", "first line must be 'h <spacing>'"),
        ],
        ids=["missing", "not-utf-8", "bad-character", "no-header"],
    )
    def test_unreadable_mask_file_names_its_path(self, tmp_path, capsys, content, reason):
        path = tmp_path / "dom.mask"
        if content is not None:
            path.write_bytes(content)
        message = f"experiments[0] ('file'): cannot read the mask domain (path={str(path)!r}): "
        self.refused(tmp_path, capsys, {"experiments": [mask_block(path)]}, message)
        with pytest.raises(ConfigError, match=re.escape(reason)):
            parse_config(json.dumps({"experiments": [mask_block(path)]}))

    def test_mask_file_above_the_ceiling(self, tmp_path, capsys):
        side = math.isqrt(MAX_GRID_NODES) + 1
        path = tmp_path / "wide.mask"
        path.write_text("h 0.01\n" + ("#" * side + "\n") * side)
        message = f"spans a box of {side * side} lattice nodes, above the grid ceiling"
        self.refused(tmp_path, capsys, {"experiments": [mask_block(path)]}, message)

    def test_part_too_coarse_at_a_mask_files_h(self, tmp_path, capsys):
        # parts on a mask domain were not checked while parsing, before
        path = tmp_path / "ell.mask"
        path.write_text(ELL_MASK)
        parts = [{"type": "rect", "a": 0.375, "b": 0.375}]
        block = mask_block(path, count=3, checks=[{"type": "decomposition", "parts": parts}])
        message = (
            "experiments[0].checks[0]: parts[0]: h=0.125 is too coarse for the rect domain "
            "(a=0.375, b=0.375): it resolves to 4 unknowns, at least 9 are required"
        )
        self.refused(tmp_path, capsys, {"experiments": [block]}, message)
        # the ell's lower-left 3 x 3 nodes, inside it
        parts[0].update(a=0.5, b=0.5, corner=[-0.125, -0.125])
        (exp,) = parse_config(json.dumps({"experiments": [block]}))
        (part,) = exp.checks[0]["parts"]
        assert part.h == exp.grids[0].h == 0.125 and part.n_unknowns == 9

    def test_each_grid_and_mask_file_read_once(self, tmp_path, monkeypatch):
        # a mask's nodes start at its origin, a rectangle's one h past its corner
        path = tmp_path / "square.mask"
        path.write_text("h 0.125\n" + "#######\n" * 7)
        parts = [
            {"type": "rect", "a": 0.5, "b": 1.0, "corner": [-0.125, -0.125]},
            {"type": "rect", "a": 0.5, "b": 1.0, "corner": [0.25, -0.125]},
        ]
        blocks = [
            mask_block(path, count=3, checks=[{"type": "decomposition", "parts": parts}]),
            {**fd_block(SQUARE, 0.125), "name": "levels", "backend": {"type": "fd", "h": [0.125, 0.25]}},
        ]
        built = []
        for dtype in ("mask", "rect"):
            spec = DOMAINS[dtype]

            def counted(d, h, build=spec.grid):
                built.append(build(d, h))
                return built[-1]

            monkeypatch.setitem(DOMAINS, dtype, dataclasses.replace(spec, grid=counted))
        experiments = parse_config(json.dumps({"experiments": blocks}))
        descriptors = ["mask(square.mask)"] + ["rectangle(0.5,1)"] * 2 + ["rectangle(1,1)"] * 2
        assert [grid.descriptor for grid in built] == descriptors
        out = tmp_path / "out"
        assert run_config(experiments, out) == 0
        assert len(built) == 5
        assert experiments[0].backend["h"] == [0.125] and experiments[1].backend["h"] == [0.25, 0.125]
        rows = list(csv.DictReader(open(out / "levels.spectra.csv", newline="")))
        assert [row["h"] for row in rows] == ["0.25"] * 6 + ["0.125"] * 6

    def test_disconnected_mask_file_reports_the_same_error(self, tmp_path, capsys):
        # the connectivity check moved from the grid to fd_spectra; the report keeps its bytes
        path = tmp_path / "split.mask"
        path.write_text("h 0.1\n###.###\n###.###\n###.###\n")
        block = {**mask_block(path, count=4), "name": "split", "kinds": KINDS}
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["split.report.json"]
        assert (out / "split.report.json").read_bytes() == (
            b'{\n  "name": "split",\n'
            b'  "error": "ValueError: mask must form a single 4-connected component"\n}\n'
        )
        assert capsys.readouterr().err == (
            "speclab: split: ValueError: mask must form a single 4-connected component\n"
        )


def split_block(h, parts, count=3):
    return {
        "name": "split",
        "domain": SQUARE,
        "kinds": ["buckling"],
        "backend": {"type": "fd", "h": [h]},
        "count": count,
        "checks": [{"type": "decomposition", "parts": parts}],
    }


class TestPartitionCheckedWhileParsing:
    """Decomposition parts that do not partition the whole exit 2 before anything is solved."""

    @pytest.fixture(autouse=True)
    def nothing_solved(self, monkeypatch):
        monkeypatch.setattr(fdlab, "fd_spectra", lambda *args: pytest.fail("a grid was solved"))

    @staticmethod
    def refused(tmp_path, capsys, payload, message):
        """``payload`` fails to parse with ``message``, and ``verify`` exits 2 on it, writing nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as info:
                parse_config(json.dumps(payload))
            assert str(info.value) == message
            out = tmp_path / "out"
            config = write_config(tmp_path, payload)
            assert main(["verify", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"speclab: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "h, corners, message",
        [
            # exited 2 from the report, after the whole grid was solved, before
            (1 / 80, [[0.75, 0.0]], "parts[0] rectangle(0.5,1) has nodes outside rectangle(1,1)"),
            # named by the nodes it shares with the part before it
            (1 / 16, [[0.0, 0.0], [0.375, 0.0]], "parts overlap at 15 nodes (first: (6, 0))"),
            (1 / 16, [[0.3, 0.0]], "parts[0] rectangle(0.5,1) is not aligned with the whole grid"),
            # an invalid cast, with a RuntimeWarning, before
            (1 / 16, [[1e300, 0.0]], "parts[0] rectangle(0.5,1) has nodes outside rectangle(1,1)"),
            (
                1 / 16,
                [[0.5, 0.0], [1.7976931348623157e308, 0.0]],
                "parts[1] rectangle(0.5,1) has nodes outside rectangle(1,1)",
            ),
            # named by its descriptor alone, the same as its twin's, before
            (1 / 8, [[0.0, 0.0], [0.75, 0.0]], "parts[1] rectangle(0.5,1) has nodes outside rectangle(1,1)"),
        ],
        ids=[
            "past-the-edge",
            "overlapping-pair",
            "misaligned",
            "corner-1e300",
            "corner-max-float",
            "second-of-two-same-size-parts",
        ],
    )
    def test_bad_partition(self, tmp_path, capsys, h, corners, message):
        parts = [{"type": "rect", "a": 0.5, "b": 1.0, "corner": corner} for corner in corners]
        payload = {"experiments": [split_block(h, parts)]}
        self.refused(tmp_path, capsys, payload, f"experiments[0].checks[0]: {message}")

    def test_part_in_a_mask_files_notch(self, tmp_path, capsys):
        path = tmp_path / "ell.mask"
        path.write_text(ELL_MASK)
        parts = [{"type": "rect", "a": 0.5, "b": 0.5}]
        block = mask_block(path, count=3, checks=[{"type": "decomposition", "parts": parts}])
        message = (
            "experiments[0].checks[0]: parts[0] rectangle(0.5,0.5) has nodes outside mask(ell.mask)"
        )
        self.refused(tmp_path, capsys, {"experiments": [block]}, message)

    def test_parts_holding_fewer_unknowns_than_count(self, tmp_path, capsys):
        # the whole was solved, then the report said the parts supplied
        # fewer eigenvalues than requested, before
        corner = {"type": "rect", "a": 0.25, "b": 0.25}
        message = "experiments[0].checks[0]: 'count' 10 exceeds the 9 unknowns of its parts"
        payload = {"experiments": [split_block(1 / 16, [corner], count=10)]}
        self.refused(tmp_path, capsys, payload, message)
        # the count is of the parts together
        (exp,) = parse_config(json.dumps({"experiments": [split_block(1 / 16, [corner], count=9)]}))
        assert [part.n_unknowns for part in exp.checks[0]["parts"]] == [9]
        pair = [corner, {**corner, "corner": [0.5, 0.0]}]
        (exp,) = parse_config(json.dumps({"experiments": [split_block(1 / 16, pair, count=10)]}))
        assert exp.checks[0]["count"] == 10


class TestConfigFilesThatCrashedReading:
    """Config files that once escaped as tracebacks exit 2 with one speclab: line."""

    def test_config_not_utf_8(self, tmp_path, capsys):
        # UnicodeDecodeError from reading the file, before
        config = tmp_path / "latin.json"
        config.write_bytes(json.dumps({"experiments": [interval_block()]}).encode().replace(b"rod", b"r\xf6d"))
        exits_2(tmp_path, capsys, config, "cannot read config: 'utf-8' codec can't decode")

    def test_config_nested_too_deeply(self, tmp_path, capsys):
        # RecursionError from json.loads, before
        text = '{"experiments": ' + "[" * 100_000
        with pytest.raises(ConfigError, match="nests too deeply"):
            parse_config(text)
        config = tmp_path / "deep.json"
        config.write_text(text)
        exits_2(tmp_path, capsys, config, "config parse error: the JSON nests too deeply")

    def test_name_with_a_null_byte(self, tmp_path, capsys):
        # ValueError: embedded null byte from opening the outputs, after
        # every spectrum was computed, before
        block = interval_block(name="rod\u0000")
        message = "experiments[0]: experiment 'name' must be a file-name-safe string"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(json.dumps({"experiments": [block]}))
        config = write_config(tmp_path, {"experiments": [block]})
        exits_2(tmp_path, capsys, config, message)


class TestChecksResolvedBeforeRunning:
    """Checks whose needs the config cannot meet exit 2 before any solve."""

    @pytest.mark.parametrize(
        "block, field",
        [
            (interval_block(checks=[{"type": "weyl", "volume": 0}], count=40), "'volume'"),
            (analytic_block(SQUARE, KINDS[:2], [{"type": "weyl2", "boundary": 0}], 400), "'boundary'"),
            (interval_block(checks=[{"type": "heat", "times": []}]), "'times'"),
            (interval_block(checks=[{"type": "heat", "times": [0.01, -0.1]}]), "'times'"),
            (analytic_block(DISK, KINDS, [{"type": "weyl2", "kind": "buckling"}]), "'kind'"),
            (interval_block(checks=[{"type": "heat", "kind": "clamped"}]), "'kind'"),
            (interval_block(checks=[{"type": "payne"}], count=1), "'count'"),
            (cap_block([{"type": "weyl"}]), "'volume'"),
            (
                {
                    "name": "ell",
                    "domain": {"type": "mask"},
                    "kinds": ["dirichlet"],
                    "backend": {"type": "fd"},
                    "checks": [{"type": "weyl"}],
                },
                "'volume'",
            ),
            (analytic_block(DISK, KINDS[2:], [{"type": "weyl2"}]), "'kind'"),
            ({**interval_block(checks=[{"type": "heat"}]), "kinds": KINDS[2:]}, "'kind'"),
            (
                analytic_block(DISK, KINDS, [{"type": "sharpness", "caps": [{"delta": 4.0}]}]),
                "caps[0]: cap 'delta' must be an aperture in (0, pi)",
            ),
            (
                analytic_block(DISK, KINDS, [{"type": "sharpness", "caps": [{"delta": 2.0, "points": 5}]}]),
                "caps[0]: cap 'points' must be an integer in [8, 8000]",
            ),
            # a negative rtol judged every fit a failure, exit 1, before
            (
                interval_block(checks=[{"type": "weyl", "rtol": -1}], count=40),
                "weyl 'rtol' must be a nonnegative number",
            ),
            (
                analytic_block(SQUARE, KINDS[:2], [{"type": "weyl2", "rtol": -0.25}], 400),
                "weyl2 'rtol' must be a nonnegative number",
            ),
            (
                interval_block(checks=[{"type": "heat", "times": [0.1], "rtol": -0.1}], count=40),
                "heat 'rtol' must be a nonnegative number",
            ),
        ],
    )
    def test_unmeetable_check_exits_2_naming_the_field(self, tmp_path, capsys, block, field):
        if block["domain"]["type"] == "mask":
            mask_path = tmp_path / "ell.mask"
            mask_path.write_text(ELL_MASK)
            block = {**block, "domain": {"type": "mask", "path": str(mask_path)}}
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("speclab: ") and field in err
        assert not out.exists()

    def test_sharpness_needs_a_count_of_two(self):
        # sharpness reads mu_2 of the disk; at count 1 it parsed and then
        # the run died with "IndexError: index 1 is out of bounds"
        caps = [{"delta": 2.0, "points": 100}]
        block = analytic_block(DISK, KINDS, [{"type": "sharpness", "caps": caps}], count=1)
        message = r"sharpness needs an experiment 'count' of 2 or more"
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps({"experiments": [block]}))

    @pytest.mark.parametrize(
        "check, field",
        [
            # a misspelt field left the default window in force
            ({"type": "weyl", "windw": [1.0, 50.0]}, "windw"),
            ({"type": "weyl", "boundary": 1.0}, "boundary"),
            ({"type": "chain", "rtol": None}, "rtol"),
            ({"type": "payne", "taus": [1.0]}, "taus"),
        ],
    )
    def test_a_field_the_check_does_not_read_is_refused(self, check, field):
        block = interval_block(checks=[check], count=40)
        with pytest.raises(ConfigError, match=rf"{check['type']} has no field '{field}'"):
            parse_config(json.dumps({"experiments": [block]}))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # [] reported an asserted ok over no tau, and 1 judged tau = 0 alone
            ("taus", [], "'taus' must be a nonempty list of numbers"),
            ("points", 1, r"'points' must be an integer in \[2, "),
        ],
    )
    def test_counting_chain_needs_more_than_one_tau(self, field, value, message):
        block = interval_block(checks=[{"type": "counting-chain", field: value}])
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps({"experiments": [block]}))
        block["checks"][0][field] = [0.0, 1.0] if field == "taus" else 2
        (exp,) = parse_config(json.dumps({"experiments": [block]}))
        assert exp.checks[0][field] == block["checks"][0][field]

    @pytest.mark.parametrize(
        "domain, backend, field",
        [
            # each of these used to parse, then fail in the solve with exit 2
            ({"type": "lshape", "a": 1.0, "b": 1.0, "notch": 1.0}, {"type": "fd", "h": [0.1]}, "'notch'"),
            ({"type": "lshape", "a": 1.0, "b": 1.0, "notch": 0}, {"type": "fd", "h": [0.1]}, "'notch'"),
            ({"type": "disk", "radius": -1}, {"type": "analytic"}, "'radius'"),
            ({"type": "interval", "length": 1e-300}, {"type": "analytic"}, "'length'"),
            ({"type": "rect", "a": 0, "b": 1.0}, {"type": "analytic"}, "'a'"),
            # these used to run and report wrong values: the Neumann
            # eigenvalues underflow to 0 at length 1e300, and the fd Neumann
            # values fall under the null-mode snap at side 1e6
            ({"type": "interval", "length": 1e300}, {"type": "analytic"}, "'length'"),
            ({"type": "rect", "a": 1e6, "b": 1e6}, {"type": "fd", "h": [6.25e4]}, "'a'"),
        ],
    )
    def test_domain_out_of_range_exits_2_naming_the_field(
        self, tmp_path, capsys, domain, backend, field
    ):
        block = {"name": "d", "domain": domain, "kinds": ["neumann"], "backend": backend}
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("speclab: ") and f"domain {field} must be" in err
        assert not out.exists()

    def test_decomposition_parts_range_checked(self):
        part = {"type": "rect", "a": 2000.0, "b": 1.0}
        block = {
            "name": "plate",
            "domain": {"type": "rect", "a": 1.0, "b": 1.0},
            "kinds": ["buckling"],
            "backend": {"type": "fd", "h": [0.125]},
            "checks": [{"type": "decomposition", "parts": [part]}],
        }
        with pytest.raises(ConfigError, match=r"parts\[0\]: rect domain 'a' must be a length"):
            parse_config(json.dumps({"experiments": [block]}))

    @pytest.mark.parametrize(
        "delta, backend, message",
        [
            (4.0, {"type": "cap"}, r"cap domain 'delta' must be an aperture in \(0, pi\)"),
            (1.0, {"type": "cap", "points": 5}, r"cap backend 'points' must be an integer in \[8, "),
        ],
    )
    def test_cap_backend_range_checked_at_parse_time(self, delta, backend, message):
        block = {**cap_block([]), "domain": {"type": "cap", "delta": delta}, "backend": backend}
        with pytest.raises(ConfigError, match=message):
            parse_config(json.dumps({"experiments": [block]}))

    def test_backend_block_resolved(self):
        fd = {**interval_block(), "backend": {"type": "fd", "h": [0.125, 0.25, 1]}}
        fd["domain"] = {"type": "interval", "length": 20.0}
        exps = parse_config(json.dumps({"experiments": [fd, cap_block([])]}))
        assert exps[0].backend["h"] == [1.0, 0.25, 0.125]
        assert all(isinstance(h, float) for h in exps[0].backend["h"])
        assert exps[1].backend["cap"] == CapDomain(1.0, 100)

    def test_parse_leaves_the_callers_checks_alone(self):
        check = {"type": "decomposition", "parts": [{"type": "rect", "a": 0.5, "b": 1}]}
        block = {**interval_block(checks=[check]), "domain": SQUARE, "backend": {"type": "fd", "h": [0.125]}}
        (parsed,) = parse_config(json.dumps({"experiments": [block]}))
        # each part comes back built, at the experiment's finest h
        (part,) = parsed.checks[0]["parts"]
        assert part.descriptor == "rectangle(0.5,1)" and part.h == 0.125
        assert part.origin == (0.125, 0.125) and part.mask.shape == (7, 3) and part.mask.all()
        assert parsed.checks[0]["count"] == 10
        assert block["checks"][0]["parts"][0] == {"type": "rect", "a": 0.5, "b": 1}

    def test_null_fields_mean_their_defaults(self, tmp_path):
        def check(ctype, fill, **given):
            spelled = {key: fill for key in CHECKS[ctype].fields if key not in given}
            return {"type": ctype, **spelled, **given}

        def config(fill):
            parts = [
                {"type": "rect", "a": 0.5, "b": 1.0},
                {"type": "rect", "a": 0.5, "b": 1.0, "corner": [0.5, 0.0]},
            ]
            cap = {"delta": 2.0, "points": fill}
            return {
                "experiments": [
                    interval_block(
                        checks=[
                            check(t, fill) for t in ("chain", "counting-chain", "payne", "weyl", "heat")
                        ],
                        count=200,
                    ),
                    analytic_block(SQUARE, KINDS[:2], [check(t, fill) for t in ("weyl2", "heat")], 1500),
                    analytic_block(
                        DISK,
                        KINDS,
                        [check("sharpness", fill), check("sharpness", fill, caps=[cap])],
                    ),
                    {
                        **interval_block(checks=[check("decomposition", fill, parts=parts)], count=3),
                        "name": "split",
                        "domain": SQUARE,
                        "kinds": ["buckling"],
                        "backend": {"type": "fd", "h": [0.125]},
                    },
                ]
            }

        def strip(node):
            if isinstance(node, dict):
                return {k: strip(v) for k, v in node.items() if v is not absent}
            return [strip(v) for v in node] if isinstance(node, list) else node

        absent = object()
        outs = []
        for name, fill in (("null", None), ("absent", absent)):
            payload = strip(config(fill))
            out = tmp_path / name
            code = main(["report", "--config", str(write_config(tmp_path, payload)), "--out", str(out)])
            outs.append((code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert outs[0] == outs[1]
        assert all(b'"error"' not in data for data in outs[0][1].values())


def ints(node):
    if isinstance(node, dict):
        return [i for value in node.values() for i in ints(value)]
    if isinstance(node, list):
        return [i for value in node for i in ints(value)]
    return [node] if isinstance(node, int) and not isinstance(node, bool) else []


#: Fast blocks whose checks set every field the check table gives them.
CHEAP_BLOCKS = [
    interval_block(
        checks=[
            {"type": "chain"},
            {"type": "counting-chain", "taus": [1.0, 50.0, 400.0], "points": 20},
            {"type": "payne"},
            {"type": "weyl", "kind": "dirichlet", "window": [10.0, 10000.0], "rtol": 0.5, "volume": 2.0},
            {
                "type": "heat",
                "kind": "neumann",
                "times": [0.01, 0.02],
                "rtol": 0.1,
                "volume": 2.0,
                "boundary": 2.0,
            },
        ],
        count=200,
    ),
    analytic_block(
        SQUARE,
        KINDS[:2],
        [
            {"type": "weyl", "kind": "dirichlet", "window": [50.0, 1500.0], "rtol": 0.5, "volume": 1.0},
            {
                "type": "weyl2",
                "kind": "neumann",
                "window": [50.0, 1500.0],
                "rtol": 0.5,
                "volume": 1.0,
                "boundary": 4.0,
            },
            {
                "type": "heat",
                "kind": "dirichlet",
                "times": [0.05, 0.1],
                "rtol": 0.2,
                "volume": 1.0,
                "boundary": 4.0,
            },
        ],
        count=200,
    ),
]
TYPED_ERRORS = ("TrustRangeError", "InsufficientDataError", "TruncationError")


class TestWholeRuns:
    def test_cheap_blocks_spell_out_every_field_and_run(self, tmp_path):
        for block in CHEAP_BLOCKS:
            for check in block["checks"]:
                assert set(check) == {"type", *CHECKS[check["type"]].fields}
        config = write_config(tmp_path, {"experiments": CHEAP_BLOCKS})
        assert main(["report", "--config", str(config), "--out", str(tmp_path / "out")]) in (0, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_check_mutation_runs_or_fails_typed(self, tmp_path_factory, data):
        # whole runs: any field of any check may be nulled, replaced or
        # dropped; the run either stops at parse time or fails only with the
        # typed errors that depend on the computed values
        blocks = copy.deepcopy(
            data.draw(st.lists(st.sampled_from(CHEAP_BLOCKS), min_size=1, unique_by=id))
        )
        for _ in range(data.draw(st.integers(1, 3))):
            check = data.draw(st.sampled_from(data.draw(st.sampled_from(blocks))["checks"]))
            if check and data.draw(st.booleans()):
                check[data.draw(st.sampled_from(sorted(check)))] = None
            else:
                mutate(check, data)
        assume(all(i <= 1000 for i in ints(blocks)))
        root = tmp_path_factory.mktemp("run")
        config = write_config(root, {"experiments": blocks})
        out = root / "out"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["report", "--config", str(config), "--out", str(out)])
        err = err.getvalue()
        assert code in (0, 1, 2) and "Traceback" not in err
        if not out.exists():
            assert code == 2 and err.startswith("speclab: ")
            return
        # each experiment that failed while running has one stderr line
        failed = ""
        for block in blocks:
            report = json.loads((out / f"{block['name']}.report.json").read_text())
            if "error" in report:
                assert report["error"].split(":")[0] in TYPED_ERRORS
                failed += f"speclab: {block['name']}: {report['error']}\n"
        assert err == failed


#: Blocks that between them run all eight check types, a one-term weyl included.
LAYOUT_BLOCKS = [
    {
        "name": "plate",
        "domain": SQUARE,
        "kinds": KINDS,
        "backend": {"type": "fd", "h": [0.0625, 0.03125]},
        "count": 4,
        "checks": [
            {"type": "chain"},
            {"type": "counting-chain", "points": 5},
            {
                "type": "decomposition",
                "parts": [
                    {"type": "rect", "a": 0.5, "b": 1.0},
                    {"type": "rect", "a": 0.5, "b": 1.0, "corner": [0.5, 0.0]},
                ],
            },
        ],
    },
    analytic_block(DISK, KINDS, [{"type": "sharpness", "caps": [{"delta": 2.0, "points": 100}]}]),
    interval_block(
        checks=[
            {"type": "payne"},
            {"type": "weyl", "kind": "dirichlet", "window": [10.0, 10000.0], "rtol": 0.5},
            {"type": "heat", "kind": "neumann", "times": [0.01, 0.02]},
        ],
        count=200,
    ),
    analytic_block(
        SQUARE,
        KINDS[:2],
        [{"type": "weyl2", "kind": "neumann", "window": [50.0, 1500.0], "rtol": 0.5}],
        count=200,
    ),
]

#: Per check type, the keys of its report entry and of its rows, in order.
LAYOUT = {
    "chain": (
        "check domain ok rows uncertainty asserted",
        "k mu lambda gamma Lambda margins passes",
    ),
    "counting-chain": ("check domain ok taus counts violations asserted", None),
    "decomposition": ("check domain parts ok rows asserted", "k whole merged margin holds"),
    "sharpness": ("check ok rows asserted", "label left right holds asserted"),
    "payne": ("check domain holds_all rows asserted ok", "k lambda_next Lambda gap holds"),
    "weyl": (
        "check kind domain dim volume window points leading leading_theory ratio asserted ok",
        None,
    ),
    "weyl2": (
        "check kind domain dim volume window points leading leading_theory ratio boundary "
        "second second_theory second_sign_ok second_ratio rtol asserted ok",
        None,
    ),
    "heat": (
        "check kind domain volume boundary rtol ok rows asserted",
        "t scaled_trace predicted rel_deviation asymptotic",
    ),
}


class TestReportLayout:
    def test_every_check_type_keeps_its_key_order(self, tmp_path):
        assert {c["type"] for b in LAYOUT_BLOCKS for c in b["checks"]} == set(CHECKS)
        config = write_config(tmp_path, {"experiments": LAYOUT_BLOCKS})
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        for block in LAYOUT_BLOCKS:
            report = json.loads((out / f"{block['name']}.report.json").read_text())
            assert list(report) == ["name", "domain", "count", "checks", "ok"]
            assert len(report["checks"]) == len(block["checks"])
            for check, entry in zip(block["checks"], report["checks"]):
                keys, row_keys = LAYOUT[check["type"]]
                assert list(entry) == keys.split()
                assert entry["check"] == {"weyl2": "weyl"}.get(check["type"], check["type"])
                if row_keys is None:
                    assert "rows" not in entry
                else:
                    assert entry["rows"]
                    assert all(list(row) == row_keys.split() for row in entry["rows"])


class TestReadme:
    def test_config_example_is_the_bench_config(self):
        readme = (ROOT / "README.md").read_text()
        example = readme.split("### Config example")[1].split("```json")[1].split("```")[0]
        bench = json.loads((ROOT / "bench" / "readme_config.json").read_text())
        assert json.loads(example) == bench
        parse_config(example)


def blas_env(threads):
    """The test environment with OPENBLAS_NUM_THREADS set to ``threads``, or unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


class TestSubprocess:
    @pytest.mark.parametrize("threads, expected", [(None, "1"), ("2", "2")])
    def test_import_sets_one_blas_thread_unless_the_user_chose(self, threads, expected):
        code = "import os, speclab; print(os.environ['OPENBLAS_NUM_THREADS'])"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=blas_env(threads)
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
    def test_blas_starts_no_worker_threads(self):
        # with two BLAS threads, numpy's and scipy's bundled OpenBLAS each
        # start one worker, so the process holds 3 threads
        code = (
            "import os, speclab.cli\n"
            "from speclab.fdlab import fd_spectra, lshape_domain\n"
            "fd_spectra(lshape_domain(1.0, 1.0, 1 / 40), ['neumann', 'buckling'], 6)\n"
            "print(len(os.listdir('/proc/self/task')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=blas_env(None)
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"

    def test_module_entry_point(self, tmp_path):
        config = write_config(tmp_path, {"experiments": [interval_block(count=6)]})
        out = tmp_path / "out"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "speclab.cli",
                "spectrum",
                "--config",
                str(config),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "rod.spectra.csv").exists()

    def test_import_loads_no_bessel_or_optimizer_modules(self):
        # scipy.special loads on the first Bessel call; scipy.optimize
        # alone would add about 0.2 s to every start-up
        code = (
            "import sys, speclab.cli; "
            "print([m for m in ('scipy.special', 'scipy.optimize') if m in sys.modules])"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @staticmethod
    def scipy_loaded_after(code: str, *args) -> tuple[list[str], str]:
        """The lines ``code`` prints in a fresh process, then the scipy modules it loaded."""
        code += "\nprint(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
        cmd = [sys.executable, "-W", "error::RuntimeWarning", "-c", "import sys\n" + code]
        proc = subprocess.run([*cmd, *map(str, args)], capture_output=True, text=True, timeout=20)
        assert proc.returncode == 0, proc.stderr
        *printed, loaded = proc.stdout.splitlines()
        return printed, loaded

    def test_no_forked_worker_imports_a_module(self, tmp_path):
        # the scipy modules the closed-form and cap spectra use load once,
        # before the workers are forked; a worker that imported one itself
        # would print its own line of it
        config = write_config(
            tmp_path, {"experiments": [analytic_block(DISK, KINDS, []), cap_block([])]}
        )
        # two workers on any machine
        code = (
            "import sys, speclab.cli as cli, speclab.pool as pool\n"
            "pool.cpus = lambda: 2\n"
            "sys.exit(cli.main(sys.argv[1:]))"
        )
        cmd = [sys.executable, "-X", "importtime", "-c", code, "report"]
        args = ["--config", str(config), "--out", str(tmp_path / "out")]
        proc = subprocess.run([*cmd, *args], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        for module in ("scipy.special", "scipy.linalg"):
            lines = re.findall(rf"^import time:.*\| *{re.escape(module)}$", proc.stderr, re.M)
            assert len(lines) == 1, (module, lines)

    def test_import_loads_no_scipy(self):
        # the analytic interval and rectangle need numpy alone; each layer
        # imports its scipy subpackage on first use
        assert self.scipy_loaded_after("import speclab.cli")[1] == "[]"

    def test_parse_config_loads_no_scipy(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        import workloads

        paths = []
        for index, config in enumerate(workloads.variant_configs()):
            paths.append(write_config(tmp_path, config, f"variant{index}.json"))
        paths.append(ROOT / "bench" / "readme_config.json")
        # parsing reads the mask file and builds the grids of the parts on it
        mask = tmp_path / "ell.mask"
        mask.write_text(ELL_MASK)
        parts = [{"type": "rect", "a": 0.5, "b": 0.5, "corner": [-0.125, -0.125]}]
        block = {
            "name": "file",
            "domain": {"type": "mask", "path": str(mask)},
            "kinds": ["buckling"],
            "backend": {"type": "fd"},
            "checks": [{"type": "decomposition", "parts": parts}],
        }
        paths.append(write_config(tmp_path, {"experiments": [block]}, "mask.json"))
        assert len(paths) == 11
        code = (
            "import speclab.cli as cli\n"
            "for path in sys.argv[1:]:\n"
            "    print(len(cli.parse_config(open(path).read())))"
        )
        printed, loaded = self.scipy_loaded_after(code, *paths)
        assert len(printed) == 11 and all(int(n) >= 1 for n in printed)
        assert loaded == "[]"

    def test_grids_and_mask_files_load_no_scipy(self, tmp_path):
        mask = tmp_path / "ell.mask"
        mask.write_text(ELL_MASK)
        code = (
            "from speclab.fdlab import (\n"
            "    disk_domain, interval_domain, lshape_domain, read_mask_file, rectangle_domain,\n"
            ")\n"
            "grids = [\n"
            "    interval_domain(1.0, 0.05), rectangle_domain(1.0, 0.5, 0.05),\n"
            "    disk_domain(1.0, 0.05), lshape_domain(1.0, 1.0, 0.05), read_mask_file(sys.argv[1]),\n"
            "]\n"
            "print([grid.n_unknowns for grid in grids])"
        )
        printed, loaded = self.scipy_loaded_after(code, mask)
        assert printed == ["[19, 171, 1245, 261, 33]"]
        assert loaded == "[]"

    def test_analytic_interval_and_rectangle_report_loads_no_scipy(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        import workloads

        readme = json.loads((ROOT / "bench" / "readme_config.json").read_text())
        names = ("rod", "square-heat")
        experiments = [exp for exp in readme["experiments"] if exp["name"] in names]
        config = write_config(tmp_path, {"experiments": experiments})
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        code = "import speclab.cli as cli\nprint(cli.main(sys.argv[1:]))"
        printed, loaded = self.scipy_loaded_after(
            code, "report", "--config", config, "--out", cold
        )
        assert printed == ["0"] and loaded == "[]"
        # this process has scipy loaded throughout, as every run did before
        assert main(["report", "--config", str(config), "--out", str(warm)]) == 0
        written = {p.name: p.read_bytes() for p in sorted(cold.iterdir())}
        suffixes = ("report.json", "spectra.csv")
        assert sorted(written) == sorted(f"{n}.{s}" for n in names for s in suffixes)
        assert written == {p.name: p.read_bytes() for p in sorted(warm.iterdir())}
        # every value against its closed form, at oracles.CLOSED_FORM_RTOL
        expected = workloads.expected_spectra({"experiments": experiments}, refs={})
        for exp in experiments:
            assert workloads.check_experiment(exp, cold, expected) == [], exp["name"]

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                {
                    "name": "tiny",
                    "domain": {"type": "rect", "a": 1.0, "b": 1.0},
                    "kinds": ["dirichlet"],
                    "backend": {"type": "fd", "h": [0.2]},
                    "count": 50,
                },
                "'count' 50 exceeds the 16 unknowns",
            ),
            (
                interval_block(checks=[{"type": "counting-chain", "points": 10**51}]),
                f"counting-chain 'points' must be an integer in [2, {MAX_CHAIN_POINTS}]",
            ),
            (
                {**fd_block(SQUARE, 1e-5), "count": 6},
                "h=1e-05 meshes the rect domain (a=1, b=1) in a box of 9999800001 lattice nodes",
            ),
            # a decomposition part past the square's edge, or far off its lattice
            (
                split_block(0.0125, [{"type": "rect", "a": 0.5, "b": 1.0, "corner": [0.75, 0.0]}]),
                "parts[0] rectangle(0.5,1) has nodes outside rectangle(1,1)",
            ),
            (
                split_block(0.0125, [{"type": "rect", "a": 0.5, "b": 1.0, "corner": [1e300, 0.0]}]),
                "parts[0] rectangle(0.5,1) has nodes outside rectangle(1,1)",
            ),
            (
                lambda tmp: mask_block(tmp / "nine.mask", count=20),
                "'count' 20 exceeds the 9 unknowns of the mask domain",
            ),
            (
                lambda tmp: mask_block(tmp / "missing.mask"),
                "cannot read the mask domain",
            ),
            # each misspelt field below ran its default, and exited 0, before
            (
                analytic_block({"type": "disk", "radious": 2}, KINDS, []),
                "disk domain has no field 'radious', only ['radius', 'center']",
            ),
            (
                {**fd_block({"type": "lshape", "a": 1.0, "b": 1.0, "notc": 0.25}, 0.125), "count": 6},
                "lshape domain has no field 'notc', only ['a', 'b', 'notch', 'corner']",
            ),
            (
                {**fd_block(SQUARE, 0.125), "backend": {"type": "fd", "h": [0.125], "hh": [0.0625]}},
                "fd backend has no field 'hh', only ['h']",
            ),
            (
                {**cap_block([]), "backend": {"type": "cap", "point": 500}},
                "cap backend has no field 'point', only ['points']",
            ),
            (
                {**interval_block(), "cout": 40},
                "experiments[0]: experiment has no field 'cout', only ['name', 'domain',",
            ),
            (
                analytic_block(DISK, KINDS, [{"type": "sharpness", "caps": [{"delta": 2.0, "pionts": 500}]}]),
                "experiments[0].checks[0]: caps[0]: cap has no field 'pionts', only ['delta', 'points']",
            ),
            (
                json.dumps({"experiments": [interval_block()], "outdir": "results"}).encode(),
                "config: top level has no field 'outdir', only ['experiments']",
            ),
            # 'type' is read on domains, backends, checks and parts only
            (
                json.dumps({"type": "y", "experiments": [interval_block()]}).encode(),
                "config: top level has no field 'type', only ['experiments']",
            ),
            (
                {**interval_block(), "type": "x"},
                "experiments[0]: experiment has no field 'type', only ['name', 'domain',",
            ),
            (
                analytic_block(DISK, KINDS, [{"type": "sharpness", "caps": [{"delta": 2.0, "type": "zz"}]}]),
                "experiments[0].checks[0]: caps[0]: cap has no field 'type', only ['delta', 'points']",
            ),
            (b'{"experiments": [{"name": "r\xf6d"}]}', "cannot read config: 'utf-8' codec"),
            (b'{"experiments": ' + b"[" * 100_000, "the JSON nests too deeply"),
        ],
        ids=[
            "count-above-unknowns",
            "chain-points",
            "square-h-1e-5",
            "part-outside",
            "part-at-1e300",
            "count-20-on-9-mask-nodes",
            "missing-mask",
            "misspelt-disk-radius",
            "misspelt-lshape-notch",
            "misspelt-fd-backend-h",
            "misspelt-cap-backend-points",
            "misspelt-block-count",
            "misspelt-sharpness-cap-points",
            "misspelt-top-level",
            "typed-top-level",
            "typed-block",
            "typed-sharpness-cap",
            "not-utf-8",
            "nested",
        ],
    )
    def test_refusals_exit_2_and_load_no_scipy(self, tmp_path, config, message):
        # parse_config refuses each of these before anything is solved; a run
        # that started to solve the 1e10-node grid instead would time out
        (tmp_path / "nine.mask").write_text("h 0.25\n###\n###\n###\n")
        config = config(tmp_path) if callable(config) else config
        if isinstance(config, bytes):
            path = tmp_path / "config.json"
            path.write_bytes(config)
        else:
            path = write_config(tmp_path, {"experiments": [config]})
        out = tmp_path / "out"
        code = (
            "import contextlib, io, speclab.cli as cli\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            "    code = cli.main(sys.argv[1:])\n"
            "print(code)\n"
            "sys.stdout.write(err.getvalue())"
        )
        printed, loaded = self.scipy_loaded_after(code, "report", "--config", path, "--out", out)
        assert printed[0] == "2" and len(printed) == 2
        assert printed[1].startswith("speclab: ") and message in printed[1]
        assert loaded == "[]"
        assert not out.exists()
