"""End-to-end runs of the configuration-driven command line."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from speclab.cli import CHECKS, DOMAINS, ConfigError, main, parse_config
from speclab.fdlab import (
    CapDomain,
    DegenerateDomainError,
    disk_domain,
    lshape_domain,
    write_mask_file,
)

ROOT = Path(__file__).resolve().parents[1]


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
        "checks": [{"type": "weyl", "window": [1.0, 50.0], "boundary": 1.0, "volume": 2.9}],
    },
    {
        "name": "file",
        "domain": {"type": "mask", "path": "m.txt"},
        "kinds": KINDS,
        "backend": {"type": "fd"},
    },
]


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


class TestParseConfig:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_any_json_experiment_list_parses_or_raises_config_error(self, data):
        # parse only: valid blocks with a few values replaced or dropped, and
        # maybe one arbitrary entry, give experiments or ConfigError, nothing else
        blocks = data.draw(st.lists(st.sampled_from(VALID_BLOCKS), min_size=1, unique_by=id))
        experiments = copy.deepcopy(blocks)
        for _ in range(data.draw(st.integers(1, 3))):
            mutate(data.draw(st.sampled_from(experiments)), data)
        experiments += data.draw(st.lists(JSON, max_size=1))
        try:
            parsed = parse_config(json.dumps({"experiments": experiments}))
        except ConfigError:
            return
        assert isinstance(parsed, list)

    def test_property_test_starts_from_valid_blocks(self):
        assert len(parse_config(json.dumps({"experiments": VALID_BLOCKS}))) == len(VALID_BLOCKS)

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
        with pytest.raises(ConfigError, match="mesh width"):
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
        with pytest.raises(ConfigError, match="repeats"):
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

    @pytest.mark.parametrize("cap", [{"delta": "2.0"}, {"delta": 2.0, "points": True}, 2.0])
    def test_sharpness_caps_checked(self, cap):
        block = {
            "name": "disk",
            "domain": {"type": "disk"},
            "kinds": ["neumann", "dirichlet", "clamped", "buckling"],
            "backend": {"type": "analytic"},
            "checks": [{"type": "sharpness", "caps": [cap]}],
        }
        with pytest.raises(ConfigError, match="'caps'"):
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

    def test_runtime_error_is_isolated(self, tmp_path):
        bad = interval_block(
            name="bad", checks=[{"type": "weyl", "window": [1.0, 1e9]}]
        )
        payload = {"experiments": [bad, interval_block(name="good")]}
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 2
        bad_report = json.loads((out / "bad.report.json").read_text())
        assert "TrustRangeError" in bad_report["error"]
        assert not (out / "bad.spectra.csv").exists()
        good_report = json.loads((out / "good.report.json").read_text())
        assert good_report["ok"] is True
        assert (out / "good.spectra.csv").exists()

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

    def test_mask_domain_through_cli(self, tmp_path):
        mask_path = tmp_path / "ell.mask"
        write_mask_file(lshape_domain(1.0, 1.0, 1.0 / 8.0), mask_path)
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
            (analytic_block(DISK, KINDS, [{"type": "sharpness", "caps": [{"delta": 4.0}]}]), "'caps'"),
            (
                analytic_block(DISK, KINDS, [{"type": "sharpness", "caps": [{"delta": 2.0, "points": 5}]}]),
                "'caps'",
            ),
        ],
    )
    def test_unmeetable_check_exits_2_naming_the_field(self, tmp_path, capsys, block, field):
        if block["domain"]["type"] == "mask":
            mask_path = tmp_path / "ell.mask"
            write_mask_file(lshape_domain(1.0, 1.0, 1.0 / 8.0), mask_path)
            block = {**block, "domain": {"type": "mask", "path": str(mask_path)}}
        config = write_config(tmp_path, {"experiments": [block]})
        out = tmp_path / "out"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("speclab: ") and field in err
        assert not out.exists()

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
        [(4.0, {"type": "cap"}, "aperture"), (1.0, {"type": "cap", "points": 5}, "grid points")],
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
        assert parsed.checks[0]["parts"][0] == {"type": "rect", "a": 0.5, "b": 1.0, "corner": (0.0, 0.0)}
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
        if err:
            assert code == 2 and err.startswith("speclab: ") and not out.exists()
            return
        for block in blocks:
            report = json.loads((out / f"{block['name']}.report.json").read_text())
            assert report.get("error", TYPED_ERRORS[0]).split(":")[0] in TYPED_ERRORS


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


class TestSubprocess:
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
