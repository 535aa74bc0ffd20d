"""Config parsing, experiment runs, manifests and determinism."""

import contextlib
import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fqca import cli, evolution
from fqca.cli import (
    EXPERIMENTS,
    _certificate_faults,
    _light_cone_leak,
    config_hash,
    dump_json,
    load_config,
    main,
    write_csv,
)
from fqca.evolution import evolve
from fqca.lattice import Boundary, Eps, FockState, LatticeConfig, bit_index
from fqca.nogo import CHAIN_SPEC, csp_satisfiable, full_spec, sign_csp, trivial_spec

REPO = Path(__file__).resolve().parents[1]


def make_config(tmp_path, **overrides):
    cfg = {
        "experiment": "two_particle_scatter",
        "lattice": {"L": 6, "theta": 0.3, "boundary": "periodic"},
        "params": {"cell": 2},
        "output_dir": str(tmp_path / "out"),
        "seed": 7,
    }
    cfg.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


# floats whose text is easy to get wrong: signed zero, the least subnormal,
# exponent form on each side, and the values JSON has no literal for
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, 1e16, 1e-5, 1e-4, 1 / 3, float("nan"), float("inf"), -float("inf")
]


def _same_float(text: str, value) -> bool:
    """text parses back to value bit for bit (any NaN to a NaN)."""
    back = float(text)
    if math.isnan(value):
        return math.isnan(back)
    return np.float64(back).tobytes() == np.float64(value).tobytes()


def test_dump_json_floats_round_trip():
    values = EDGE_FLOATS + [np.float64(v) for v in EDGE_FLOATS]
    back = json.loads(dump_json({"v": values}), parse_float=str, parse_constant=str)["v"]
    assert len(back) == len(values)
    assert all(_same_float(t, v) for t, v in zip(back, values))
    assert dump_json([1 / 3, 1.0, np.float64(-0.0)]) == "[0.3333333333333333, 1.0, -0.0]\n"


def test_dump_json_sorted_and_deterministic():
    obj = {"b": 2, "a": [1.5, {"z": True, "y": None}]}
    assert dump_json(obj) == dump_json(dict(reversed(list(obj.items()))))
    assert dump_json(obj).startswith('{"a":')


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list(EXPERIMENTS)


def test_validate_ok(tmp_path, capsys):
    p = make_config(tmp_path)
    assert main(["validate", str(p)]) == 0
    assert "ok" in capsys.readouterr().out


# what the error line of a rejected case must say, where exit 2 alone is not enough
REJECTION_WORDING = {
    "two_particle_scatter-open-L2": "the lattice L=2 (open) is too small for any cell",
    "dirac_sea-L10": "dirac_sea needs L <= 8, got L=10",
    "nogo_witness-height1-expect_found": "unknown key 'expect_found'",
    "nogo_csp-expect_sat": "unknown key 'expect_sat'",
    "nogo_witness-size202": "lattice_size must lie in [1, 201], got 202",
    "nogo_witness-height202": "height must lie in [1, 201], got 202",
    "dirac_limit-dx1e+300": "dx must lie in [1e-100, 1e+100], got 1e+300",
    "dispersion_sweep-dt1e-320": "dt must lie in [1e-100, 1e+100], got 1e-320",
    "dispersion_sweep-theta1e+300": (
        "theta must lie in [-3.141592653589793, 3.141592653589793], got 1e+300"
    ),
    "dirac_limit-eps0": "eps must lie in [1e-06, 1.0], got 0.0",
    "dirac_limit-eps1e-08": "eps must lie in [1e-06, 1.0], got 1e-08",
    "dirac_limit-nsamples100001": "nsamples must lie in [1, 100000], got 100001",
    "wavepacket-nsteps1001": "nsteps must lie in [1, 1000], got 1001",
    "wavepacket-nsteps0": "nsteps must lie in [1, 1000], got 0",
    "wavepacket-compare_thetas-empty": "compare_thetas needs at least one entry",
    "top-unknown-key": "unknown key 'colour'",
    "wavepacket-compare_thetas1e+300": (
        "compare_thetas must lie in [-3.141592653589793, 3.141592653589793], got 1e+300"
    ),
    "wavepacket-compare_thetas-9": "compare_thetas holds at most 8 entries, got 9",
    "wavepacket-compare_thetas-200": "compare_thetas holds at most 8 entries, got 200",
    # a rejected value is cut to a few entries and levels, however large
    "wavepacket-compare_thetas-10000": (
        "compare_thetas must be a list of numbers, got [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, ...]\n"
    ),
    "seed-nested-800": "seed must be an integer, got [[[[[[[...]]]]]]]\n",
    "wavepacket-compare_thetas-repeated": "compare_thetas repeats an entry: [0.1, 0.1, 0, 0.0]",
    "dirac_sea-massless-L4-theta3.14159-dt1e-05": "dirac_sea is massless at theta=3.14",
}


@pytest.mark.parametrize(
    "overrides",
    [
        {"experiment": "nope"},
        {"seed": "not-an-int"},
        {"lattice": {"L": 1}},
        {"lattice": {"L": 6, "boundary": "moebius"}},
        {"params": {"cell": 99}},
        pytest.param({"seed": -1}, id="seed-negative"),
        pytest.param(
            {"seed": functools.reduce(lambda v, _: [v], range(799), [])}, id="seed-nested-800"
        ),
        pytest.param({"lattice": {"L": 6.7}}, id="L-float"),
        pytest.param({"lattice": {"L": "8"}}, id="L-str"),
        pytest.param({"lattice": {"L": 65}}, id="L65"),
        pytest.param({"lattice": {"L": 6, "dx": 0}}, id="dx-zero"),
        pytest.param({"lattice": {"L": 6, "dt": -1.0}}, id="dt-negative"),
        pytest.param({"lattice": {"L": 6, "theta": float("nan")}}, id="theta-nan"),
        pytest.param({"lattice": {"L": 6, "Theta": 0.3}}, id="lattice-unknown-key"),
        pytest.param({"lattice": {"L": 6, "theta": "0.3"}}, id="theta-str"),
        pytest.param({"output_dir": 5}, id="output_dir-int"),
        pytest.param({"colour": "red"}, id="top-unknown-key"),
        *(
            pytest.param(
                {"experiment": name, "lattice": {"L": 8, unit: value}, "params": {}},
                id=f"{name}-{unit}{value!r}",
            )
            for name in ("dispersion_sweep", "dirac_limit")
            for unit in ("dx", "dt")
            for value in (1e300, 1e-320, 1.1e100, 0.9e-100)
        ),
        *(
            pytest.param(
                {"experiment": "dispersion_sweep", "lattice": {"L": 8, "theta": theta}},
                id=f"dispersion_sweep-theta{theta!r}",
            )
            for theta in (1e300, -3.2)
        ),
        pytest.param({"params": {"cell": 2.5}}, id="cell-float"),
        pytest.param({"params": {"cell": "x"}}, id="cell-str"),
        *(
            pytest.param(
                {"experiment": "dirac_sea", "lattice": {"L": L, "theta": 0.2}, "params": {}},
                id=f"dirac_sea-odd-L{L}",
            )
            for L in (3, 5, 7)
        ),
        *(
            pytest.param(
                {
                    "experiment": name,
                    "lattice": {"L": 6, "theta": 0.4, "boundary": "open"},
                    "params": {},
                },
                id=f"{name}-open",
            )
            for name in ("dirac_sea", "dispersion_sweep")
        ),
        *(
            pytest.param(
                {"experiment": "dirac_sea", "lattice": {"L": L, "theta": theta}, "params": {}},
                id=f"dirac_sea-massless-L{L}-theta{theta:g}",
            )
            for L, theta in ((2, 0.0), (6, 0.0), (4, math.pi), (4, 1e-13))
        ),
        *(
            # phi at k = pi/dx is about 1e-16, whatever dt
            pytest.param(
                {
                    "experiment": "dirac_sea",
                    "lattice": {"L": L, "theta": theta, "dt": 1e-5},
                    "params": {},
                },
                id=f"dirac_sea-massless-L{L}-theta{theta:g}-dt1e-05",
            )
            for L, theta in ((4, math.pi), (4, -math.pi), (6, -math.pi))
        ),
        pytest.param(
            {"experiment": "dirac_sea", "lattice": {"L": 10, "theta": 0.4}, "params": {}},
            id="dirac_sea-L10",
        ),
        *(
            pytest.param({"experiment": name, "params": params}, id=f"{name}-{label}")
            for name, label, params in (
                ("nogo_csp", "dimension3", {"dimension": 3}),
                ("nogo_csp", "dimension-str", {"dimension": "two"}),
                ("nogo_csp", "radius3", {"radius": 3}),
                ("nogo_csp", "radius-negative", {"radius": -1}),
                ("nogo_csp", "2d-size8", {"dimension": 2, "lattice_size": 8}),
                ("nogo_csp", "1d-size10", {"dimension": 1, "lattice_size": 10}),
                ("nogo_witness", "num_eps5", {"num_eps": 5}),
                ("nogo_witness", "trivial-num_eps5", {"spec": "trivial", "num_eps": 5}),
                ("wavepacket", "unknown-nstep", {"nstep": 3}),
                ("wavepacket", "eps-PLUS", {"eps": "PLUS"}),
                ("nogo_witness", "spec-Full", {"spec": "Full"}),
                ("nogo_csp", "spec-Full", {"spec": "Full"}),
                ("wavepacket", "nsteps-true", {"nsteps": True}),
                ("wavepacket", "compare_thetas-number", {"compare_thetas": 0.3}),
                ("wavepacket", "nsteps1001", {"nsteps": 1001}),
                ("wavepacket", "nsteps0", {"nsteps": 0}),
                ("wavepacket", "compare_thetas-empty", {"compare_thetas": []}),
                ("wavepacket", "compare_thetas1e+300", {"compare_thetas": [0.3, 1e300]}),
                ("wavepacket", "compare_thetas-9", {"compare_thetas": [0.1] * 9}),
                ("wavepacket", "compare_thetas-200", {"compare_thetas": [0.1] * 200}),
                ("wavepacket", "compare_thetas-10000", {"compare_thetas": [0.1] * 9999 + ["x"]}),
                ("wavepacket", "compare_thetas-pi+", {"compare_thetas": [3.2]}),
                ("wavepacket", "compare_thetas-repeated", {"compare_thetas": [0.1, 0.1, 0, 0.0]}),
                ("wavepacket", "compare_thetas-signed-zeros", {"compare_thetas": [0.0, -0.0]}),
                ("dirac_limit", "nsamples-str", {"nsamples": "ten"}),
                ("dirac_limit", "nsamples-negative", {"nsamples": -1}),
                ("dirac_limit", "eps-str", {"eps": "small"}),
                ("dirac_limit", "eps1e200", {"eps": 1e200}),
                ("dirac_limit", "eps1.5", {"eps": 1.5}),
                ("dirac_limit", "eps0", {"eps": 0}),
                ("dirac_limit", "eps-negative", {"eps": -0.05}),
                ("dirac_limit", "eps1e-08", {"eps": 1e-8}),
                ("dirac_limit", "nsamples1e30", {"nsamples": 10**30}),
                ("dirac_limit", "nsamples100001", {"nsamples": 100_001}),
                ("nogo_witness", "height-str", {"height": "two"}),
                ("nogo_witness", "min_distance-str", {"min_distance": "3"}),
                ("nogo_csp", "1d-size-negative", {"dimension": 1, "lattice_size": -2}),
                ("nogo_csp", "1d-size1", {"dimension": 1, "lattice_size": 1}),
                ("nogo_csp", "2d-size1", {"dimension": 2, "lattice_size": 1}),
                ("nogo_witness", "height-negative", {"height": -2}),
                ("nogo_witness", "height0", {"height": 0}),
                ("nogo_witness", "min_distance-negative", {"min_distance": -1}),
                ("nogo_witness", "min_distance0", {"min_distance": 0}),
                ("nogo_witness", "size-negative", {"lattice_size": -3}),
                ("nogo_witness", "size0", {"lattice_size": 0}),
                ("nogo_witness", "size7-below-witness", {"lattice_size": 7}),
                ("nogo_witness", "size0-height1", {"lattice_size": 0, "height": 1}),
                ("nogo_witness", "size202", {"lattice_size": 202}),
                ("nogo_witness", "height202", {"height": 202}),
                ("nogo_witness", "height1-expect_found", {"height": 1, "expect_found": True}),
                ("nogo_csp", "expect_sat", {"expect_sat": True}),
                ("nogo_csp", "1d-spec-trivial", {"dimension": 1, "spec": "trivial"}),
                ("nogo_csp", "1d-spec-full", {"dimension": 1, "spec": "full"}),
            )
        ),
        pytest.param(
            {"lattice": {"L": 2, "theta": 0.3, "boundary": "open"}, "params": {"cell": 1}},
            id="two_particle_scatter-open-L2",
        ),
    ],
)
def test_validate_rejects_bad_configs(tmp_path, capsys, request, overrides):
    p = make_config(tmp_path, **overrides)
    assert main(["validate", str(p)]) == 2
    assert main(["run", str(p), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert REJECTION_WORDING.get(request.node.callspec.id, "") in err


@pytest.mark.parametrize("experiment", ["dispersion_sweep", "dirac_limit", "dirac_sea"])
def test_unit_extremes_end_in_a_manifest(tmp_path, experiment):
    # each corner of the accepted dx, dt and theta ranges validates and runs to
    # a passing manifest: no traceback, no inf or nan written, and no overflow
    # warning (pytest turns a RuntimeWarning into an error). The sea's checks
    # read phases, so its verdict does not depend on dt.
    ends = cli.UNITS
    thetas = (0.3,) if experiment == "dirac_sea" else (math.pi, -1e-300)
    params = {"eps": 1.0, "nsamples": 10} if experiment == "dirac_limit" else {}
    for i, (dx, dt, theta) in enumerate(itertools.product(ends, ends, thetas)):
        out = tmp_path / str(i)
        p = make_config(
            tmp_path, experiment=experiment, params=params, output_dir=str(out),
            lattice={"L": 4, "dx": dx, "dt": dt, "theta": theta},
        )
        assert main(["validate", str(p)]) == 0
        assert main(["run", str(p), "--quiet"]) == 0
        assert json.loads((out / "manifest.json").read_text())["ok"] is True


def _near(kind, low, high):
    """Values of kind inside [low, high], at its ends, and just past them."""
    if kind is int:
        # an empty cell range (low > high) draws only rejected values
        inside = st.integers(min(low, high), max(low, high))
        return inside | st.sampled_from([low - 1, low, high, high + 1])
    past = [math.nextafter(low, -math.inf), math.nextafter(high, math.inf)]
    return st.floats(low, high) | st.sampled_from([low, high, *past])


def _block(draw, table: dict, cfg) -> dict:
    """A lattice or params block: each optional key is left out or drawn near its row's range."""
    block = {}
    for key, (kind, default, low, high) in table.items():
        if default is not ... and draw(st.booleans()):
            continue
        if low is None:
            block[key] = draw(st.sampled_from(kind))
            continue
        low, high = (b(cfg) if callable(b) else b for b in (low, high))
        value = _near(float if kind is list else kind, low, high)
        if kind is list:
            value = st.lists(value, max_size=cli.MAX_ENTRIES + 1)
        block[key] = draw(st.none() | value if default is None else value)
    return block


@st.composite
def configs(draw) -> dict:
    """A config drawn from the bounds table: its ranges, their ends and just past them."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    lattice = _block(draw, cli.LATTICE, None)
    # the cell bounds read L and the boundary; an L past its range is rejected anyway
    low, high = cli.LATTICE["L"][2:]
    cfg = LatticeConfig(
        min(max(lattice["L"], low), high), boundary=Boundary(lattice.get("boundary", "periodic"))
    )
    params = _block(draw, cli.PARAMS[experiment], cfg)
    return {"experiment": experiment, "lattice": lattice, "params": params}


def _sweep_case(experiment, params=None, **lattice):
    return {"experiment": experiment, "lattice": {"L": 4, **lattice}, "params": params or {}}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(configs())
# dirac_sea at small dt, whose gaps are right to a few ulp of phase
@example(_sweep_case("dirac_sea", L=6, theta=0.4, dt=1e-5))
@example(_sweep_case("dirac_sea", L=8, theta=0.4, dt=2e-6))
# massless seas at theta = +-pi, whose phases wrapped
@example(_sweep_case("dirac_sea", theta=math.pi, dt=1e-5))
@example(_sweep_case("dirac_sea", theta=-math.pi, dt=1.2e-5))
@example(_sweep_case("dirac_sea", L=6, theta=-math.pi, dt=1e-5))
# eps below the floor, where 0.2 eps^3 / dt falls under the rounding of phi
@example(_sweep_case("dirac_limit", {"eps": 1e-8}))
@example(_sweep_case("dirac_limit", {"eps": 1e-6}, dx=0.5, dt=0.25))
# the wavepacket caps, and a compare_thetas entry past theta's range
@example(_sweep_case("wavepacket", {"compare_thetas": [1e300]}))
@example(_sweep_case("wavepacket", {"nsteps": 1000, "compare_thetas": [i / 10 for i in range(8)]}))
@example(_sweep_case("wavepacket", {"nsteps": 10_000}, L=64))
# the slow corners: the largest sea and a 201-wide witness
@example(_sweep_case("dirac_sea", L=8, theta=0.4))
@example(_sweep_case("nogo_witness", {"lattice_size": 201, "min_distance": 1}))
@example(json.loads((REPO / "perfbench/configs/nogo_csp_1d_9.json").read_text()))
@example(json.loads((REPO / "perfbench/configs/nogo_csp_2d_7x7.json").read_text()))
@example(json.loads((REPO / "perfbench/configs/nogo_witness_height1.json").read_text()))
def test_accepted_configs_pass(tmp_path_factory, config):
    # every config validate accepts runs to a passing manifest with no
    # warning; every one it rejects exits 2 with an error line, not a traceback
    d = tmp_path_factory.mktemp("sweep")
    p = d / "config.json"
    p.write_text(json.dumps({"seed": 1, **config, "output_dir": str(d / "out")}))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["validate", str(p)])
        run = main(["run", str(p), "--quiet"])
    if code == 0:
        assert run == 0
        assert json.loads((d / "out" / "manifest.json").read_text())["ok"] is True
    else:
        assert code == run == 2
        assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


def test_dirac_sea_small_mass_runs(tmp_path):
    # phi at k = 0 is theta up to rounding, so a gap of 1e-9 is a gap
    p = make_config(tmp_path, experiment="dirac_sea", lattice={"L": 4, "theta": 1e-9}, params={})
    assert main(["run", str(p), "--quiet"]) == 0
    assert _checks(tmp_path / "out")["gaps_positive"]["measured"] == pytest.approx(1e-9)


def test_nsamples_cap_is_accepted(tmp_path):
    cap = cli.PARAMS["dirac_limit"]["nsamples"][3]
    p = make_config(tmp_path, experiment="dirac_limit", params={"nsamples": cap, "eps": 1})
    assert main(["validate", str(p)]) == 0


def test_witness_height_null_is_square(tmp_path):
    # 8 columns hold a witness at min_distance 3 on an 8 x 8 lattice, not on 8 x 2
    p = make_config(
        tmp_path, experiment="nogo_witness", params={"lattice_size": 8, "height": None}
    )
    assert main(["validate", str(p)]) == 0
    assert load_config(p)["_params"]["height"] is None
    assert main(["run", str(p), "--quiet"]) == 0
    assert _checks(tmp_path / "out")["witness_found_matches_expectation"]["measured"] == 1
    p = make_config(tmp_path, experiment="nogo_witness", params={"lattice_size": 8, "height": 2})
    assert main(["validate", str(p)]) == 2


def test_witness_path_valid_fails_on_a_corrupted_triple(tmp_path, monkeypatch):
    # the path stops one site short of s3
    p = make_config(tmp_path, experiment="nogo_witness", params={"lattice_size": 8})
    find = cli.nogo.find_witness_triple

    def corrupted(*args):
        triple = find(*args)
        return replace(triple, path=triple.path[:-1])

    monkeypatch.setattr(cli.nogo, "find_witness_triple", corrupted)
    assert main(["run", str(p), "--quiet"]) == 1
    valid = _checks(tmp_path / "out")["witness_path_valid"]
    assert not valid["passed"] and valid["measured"] == 1


def test_witness_path_valid_reads_the_config_distance(tmp_path, monkeypatch):
    # a triple found at min_distance 1 passes within 2 of s2, closer than
    # the config's min_distance 3 allows
    p = make_config(
        tmp_path, experiment="nogo_witness", params={"lattice_size": 8, "min_distance": 3}
    )
    find = cli.nogo.find_witness_triple
    near = find(cli.nogo.full_spec(2), cli.nogo.LatticeBounds(8, 8), 1)
    close = sum(cli.nogo.chebyshev(s, near.s2) < 3 for s in near.path)
    assert close > 0
    monkeypatch.setattr(
        cli.nogo, "find_witness_triple", lambda spec, bounds, min_distance: find(spec, bounds, 1)
    )
    assert main(["run", str(p), "--quiet"]) == 1
    valid = _checks(tmp_path / "out")["witness_path_valid"]
    assert not valid["passed"] and valid["measured"] == close


def test_malformed_json_reports_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"experiment": \n oops}')
    with pytest.raises(ValueError) as exc:
        load_config(p)
    assert "line" in str(exc.value)


def _config_bytes(tmp_path, **overrides) -> bytes:
    """A valid wavepacket config without params, with overrides, as UTF-8 JSON."""
    cfg = {
        "experiment": "wavepacket",
        "lattice": {"L": 8, "theta": 0.3},
        "output_dir": str(tmp_path / "out"),
        "seed": 7,
        **overrides,
    }
    return json.dumps(cfg, ensure_ascii=False).encode()


@pytest.mark.parametrize(
    "data, wording",
    [
        # a misspelled params block would otherwise run the default nsteps
        pytest.param(
            lambda d: _config_bytes(d, param={"nsteps": 1000}), "unknown key 'param'",
            id="params-misspelled",
        ),
        pytest.param(
            lambda d: _config_bytes(d, output_dir="café").decode().encode("latin-1"),
            "'utf-8' codec can't decode", id="latin-1",
        ),
        pytest.param(lambda d: b"[" * 100_000, "JSON nested too deeply", id="nested-100000"),
        pytest.param(
            lambda d: b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply", id="nested-closed"
        ),
    ],
)
def test_rejected_config_file_exits_two(tmp_path, capsys, data, wording):
    p = tmp_path / "config.json"
    p.write_bytes(data(tmp_path))
    assert main(["validate", str(p)]) == 2
    assert main(["run", str(p), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and "Traceback" not in err
    assert wording in err


def test_missing_config_file_exits_two(tmp_path, capsys):
    p = tmp_path / "absent.json"
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {p}: No such file or directory\n"


def test_utf8_bom_is_accepted(tmp_path):
    # RFC 8259 lets a parser ignore a leading byte order mark
    p = tmp_path / "config.json"
    p.write_bytes(b"\xef\xbb\xbf" + _config_bytes(tmp_path))
    assert main(["validate", str(p)]) == 0


def test_config_without_params_keeps_its_hash(tmp_path):
    # load_config adds the empty params block, which the hash has always covered
    p = tmp_path / "config.json"
    p.write_bytes(_config_bytes(tmp_path, output_dir="out"))
    digest = "f041347374c2616865a5e5702091a27b8a69292cfc2edb45e574c52a3c3fb63e"
    assert config_hash(load_config(p)) == digest
    p.write_bytes(_config_bytes(tmp_path, output_dir="out", params={}))
    assert config_hash(load_config(p)) == digest


def test_c_locale_reads_a_utf8_config(tmp_path):
    # with UTF-8 mode and locale coercion off, the C locale's codec is ASCII:
    # the config is still read as UTF-8 JSON, and an output_dir the file
    # system's codec cannot name is an error line, not a traceback
    env = {
        **os.environ,
        "PYTHONUTF8": "0",
        "PYTHONCOERCECLOCALE": "0",
        "LC_ALL": "C",
        "PYTHONPATH": str(REPO / "src"),
    }
    p = tmp_path / "config.json"
    p.write_bytes(_config_bytes(tmp_path, output_dir=str(tmp_path / "café")))

    def fqca(*args):
        cmd = [sys.executable, "-m", "fqca.cli", *args]
        return subprocess.run(cmd, env=env, capture_output=True, text=True)

    assert fqca("validate", str(p)).returncode == 0
    out = tmp_path / "ascii"
    assert fqca("run", str(p), "--quiet", "--output-dir", str(out)).returncode == 0
    assert json.loads((out / "manifest.json").read_text())["ok"] is True
    run = fqca("run", str(p), "--quiet")
    assert run.returncode == 2
    assert run.stderr.startswith("error: cannot write ") and "Traceback" not in run.stderr


def test_missing_field(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"experiment": "wavepacket"}))
    with pytest.raises(ValueError) as exc:
        load_config(p)
    assert "lattice" in str(exc.value)


def test_run_writes_manifest_and_exits_zero(tmp_path):
    p = make_config(tmp_path)
    assert main(["run", str(p), "--quiet"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["ok"] is True
    assert manifest["experiment"] == "two_particle_scatter"
    assert all(c["passed"] for c in manifest["checks"])
    assert {"gates_unitary", "light_cone_leak"} <= {c["name"] for c in manifest["checks"]}
    assert manifest["config_sha256"] == config_hash(load_config(p))
    assert (tmp_path / "out" / "scatter.csv").exists()


def test_output_dir_override(tmp_path):
    p = make_config(tmp_path)
    alt = tmp_path / "elsewhere"
    assert main(["run", str(p), "--quiet", "--output-dir", str(alt)]) == 0
    assert (alt / "manifest.json").exists()


@pytest.mark.parametrize("where", ["under_file", "is_file"])
@pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
def test_unwritable_output_dir_exits_two(tmp_path, capsys, where, flag):
    # exit 1 means a failed check, so a directory that cannot be made is an error
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file")
    outdir = blocker / "out" if where == "under_file" else blocker
    if flag:
        argv = ["run", str(make_config(tmp_path)), "--quiet", "--output-dir", str(outdir)]
    else:
        argv = ["run", str(make_config(tmp_path, output_dir=str(outdir))), "--quiet"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {outdir}: ") and "Traceback" not in err
    assert blocker.read_text() == "a regular file"


def test_failing_check_exits_nonzero(tmp_path, monkeypatch):
    # a wrong expectation: the 2D full-spec CSP at size 5, radius 1 is unsatisfiable
    p = make_config(
        tmp_path,
        experiment="nogo_csp",
        params={"dimension": 2, "radius": 1, "lattice_size": 5},
    )
    monkeypatch.setattr(cli.nogo, "csp_satisfiable", lambda *args: True)
    assert main(["run", str(p), "--quiet"]) == 1
    assert not _checks(tmp_path / "out")["satisfiability_matches_expectation"]["passed"]


def test_nan_measurement_leaves_a_readable_manifest(tmp_path, monkeypatch):
    # a NaN walk (as in test_walk_vs_automaton_reports_nan) fails its checks,
    # and the manifest that records the NaN is still JSON that json.loads reads
    p = make_config(
        tmp_path,
        experiment="wavepacket",
        lattice={"L": 8, "theta": 0.3},
        params={"cell": 4, "nsteps": 3},
    )
    real = cli.walk.walk_step
    monkeypatch.setattr(cli.walk, "walk_step", lambda cfg, psi: real(cfg, psi) * np.nan)
    assert main(["run", str(p), "--quiet"]) == 1
    checks = _checks(tmp_path / "out")
    for name in ("norm_conservation", "walk_vs_automaton_theta_0.3"):
        assert not checks[name]["passed"] and math.isnan(checks[name]["measured"])


def test_resource_cap_reported(tmp_path, capsys):
    p = make_config(
        tmp_path,
        experiment="dirac_sea",
        lattice={"L": 12, "theta": 0.4, "boundary": "periodic"},
        params={},
    )
    assert main(["run", str(p), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {p}: dirac_sea needs L <= 8, got L=12\n"


def test_csp_satisfiable_is_sign_csp_answer(tmp_path):
    # every nogo_csp instance that validate accepts runs clean, and every
    # UNSAT certificate passes the manifest's re-check
    accepted = 0
    for dimension, spec, radius, size in itertools.product(
        (1, 2), ("full", "trivial", None), range(-1, 4), range(0, 11)
    ):
        params = {"dimension": dimension, "radius": radius, "lattice_size": size}
        if spec is not None:
            params["spec"] = spec
        p = make_config(tmp_path, experiment="nogo_csp", params=params)
        try:
            load_config(p)
        except ValueError:
            continue
        accepted += 1
        trivial = dimension == 2 and spec == "trivial"
        got = csp_satisfiable(dimension, radius, size, trivial)
        footprint = CHAIN_SPEC if dimension == 1 else trivial_spec(2) if trivial else full_spec(2)
        result = sign_csp(dimension, radius, footprint, size)
        assert got is result.sat, params
        assert _certificate_faults(result.violated, dimension, radius, footprint, size) == 0, params
    # radius 0-2; 1D sizes 2-9 with no spec; 2D sizes 2-7 with spec full, trivial or left out
    assert accepted == 3 * 8 + 3 * 6 * 3


def _moved(site, di=0, dj=0, eps=None):
    return {"i": site["i"] + di, "j": site["j"] + dj, "eps": site["eps"] if eps is None else eps}


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda e: {**e, "separation": e["separation"] + 1}, id="separation"),
        pytest.param(lambda e: {**e, "images": e["images"][::-1]}, id="images-swapped"),
        pytest.param(
            lambda e: {**e, "images": [_moved(e["images"][0], di=1), e["images"][1]]}, id="not-diagonal"
        ),
        pytest.param(
            lambda e: {**e, "images": [_moved(e["images"][0], eps=2), e["images"][1]]}, id="label"
        ),
        pytest.param(
            lambda e: {**e, "pair": [e["pair"][0], _moved(e["pair"][0], eps=1)]}, id="sources-near"
        ),
    ],
)
def test_certificate_faults_counts_each_broken_entry(corrupt):
    result = sign_csp(2, 1, full_spec(2), 5)
    entries = result.violated
    faults = lambda entries: _certificate_faults(entries, 2, 1, full_spec(2), 5)
    assert len(entries) == 10 and faults(entries) == 0
    assert faults([corrupt(entries[0])] + entries[1:]) == 1
    assert faults([corrupt(e) for e in entries]) == 10


def test_certificate_faults_works_out_the_moves_itself():
    # a trivial spec allows only the (+1, +1) corner, at the source's label;
    # in 1D a label-0 particle hops left and a label-1 particle right
    far = {"pair": [{"i": 0, "j": 0, "eps": 0}, {"i": 3, "j": 1, "eps": 0}], "separation": 3}
    up = {**far, "images": [{"i": 1, "j": 1, "eps": 0}, {"i": 4, "j": 2, "eps": 0}]}
    swap = {**far, "images": [{"i": 1, "j": 1, "eps": 0}, {"i": 2, "j": 0, "eps": 0}]}
    assert _certificate_faults([up], 2, 0, trivial_spec(2), 5) == 1  # order kept
    assert _certificate_faults([swap], 2, 0, full_spec(2), 5) == 0
    assert _certificate_faults([swap], 2, 0, trivial_spec(2), 5) == 1  # the (-1, -1) corner
    off = {**far, "images": [{"i": -1, "j": 1, "eps": 0}, {"i": 2, "j": 0, "eps": 0}]}
    assert _certificate_faults([off], 2, 0, full_spec(2), 5) == 1  # an image off the lattice
    hop = {
        "pair": [{"i": 0, "j": 0, "eps": 1}, {"i": 1, "j": 0, "eps": 0}],
        "images": [{"i": 1, "j": 0, "eps": 0}, {"i": 0, "j": 0, "eps": 1}],
        "separation": 1,
    }
    assert _certificate_faults([hop], 1, 0, CHAIN_SPEC, 3) == 0
    wrong_way = {**hop, "pair": [{"i": 0, "j": 0, "eps": 0}, hop["pair"][1]]}
    assert _certificate_faults([wrong_way], 1, 0, CHAIN_SPEC, 3) == 1
    # the dimension sets the height: the same hop one row up is off a 1D lattice
    raised = {**hop, **{k: [{**s, "j": 1} for s in hop[k]] for k in ("pair", "images")}}
    assert _certificate_faults([raised], 1, 0, CHAIN_SPEC, 3) == 1
    assert _certificate_faults([raised], 2, 0, CHAIN_SPEC, 3) == 0


def test_all_shipped_configs_validate():
    # the benchmark's inputs too, so a validator change cannot break them
    for p in sorted(REPO.glob("experiments/*.json")) + sorted(REPO.glob("perfbench/configs/*.json")):
        raw = load_config(p)
        assert raw["experiment"] in EXPERIMENTS


@pytest.mark.parametrize("cell", [0, 7])
def test_scatter_wraps_on_the_ring(tmp_path, cell):
    p = make_config(tmp_path, lattice={"L": 8, "theta": 0.3}, params={"cell": cell})
    assert main(["validate", str(p)]) == 0
    assert main(["run", str(p), "--quiet"]) == 0


def test_light_cone_leak_counts_words_past_one_cell():
    # a pair started at cells 7 and 0 of the ring: its cone is cells 6, 7, 0, 1
    cfg = LatticeConfig(L=8)
    inside = (1 << bit_index(6, Eps.MINUS)) | (1 << bit_index(1, Eps.PLUS))
    outside = (1 << bit_index(6, Eps.MINUS)) | (1 << bit_index(2, Eps.MINUS))
    final = FockState(cfg, {inside: 0.6, outside: 0.8j})
    sites = [(7, Eps.PLUS), (8, Eps.MINUS)]
    assert _light_cone_leak(cfg, sites, final) == pytest.approx(0.64, abs=1e-15)
    assert _light_cone_leak(cfg, sites, FockState(cfg, {inside: 1.0})) == 0


def _checks(outdir) -> dict:
    manifest = json.loads((outdir / "manifest.json").read_text())
    return {c["name"]: c for c in manifest["checks"]}


def test_light_cone_leak_sees_a_two_cell_step(tmp_path, monkeypatch):
    # the pairs' cones hold every two-cell move; the lone particle's does not
    p = make_config(tmp_path, lattice={"L": 8, "theta": 0.3}, params={"cell": 3})
    monkeypatch.setattr(cli, "step", lambda state: evolve(state, 2))
    assert main(["run", str(p), "--quiet"]) == 1
    leak = _checks(tmp_path / "out")["light_cone_leak"]
    assert not leak["passed"] and leak["measured"] > 0.5


@pytest.mark.parametrize("cell", [0, 7])
def test_scatter_edge_cell_rejected_on_open_chain(tmp_path, cell):
    p = make_config(
        tmp_path, lattice={"L": 8, "theta": 0.3, "boundary": "open"}, params={"cell": cell}
    )
    assert main(["validate", str(p)]) == 2
    assert main(["run", str(p), "--quiet"]) == 2


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("cell, eps", [(0, "minus"), (7, "plus"), (0, "plus"), (7, "minus")])
def test_wavepacket_first_step_at_the_edges(tmp_path, boundary, cell, eps):
    # a packet heading off an open chain stays on its cell; on the ring it wraps
    p = make_config(
        tmp_path,
        experiment="wavepacket",
        lattice={"L": 8, "theta": 0.3, "boundary": boundary},
        params={"cell": cell, "eps": eps, "nsteps": 1, "compare_thetas": [0.3]},
    )
    assert main(["run", str(p), "--quiet"]) == 0
    assert _checks(tmp_path / "out")["first_step_cell"]["measured"] <= 1e-12


def test_heisenberg_check_on_64_cells(tmp_path):
    p = make_config(
        tmp_path,
        experiment="heisenberg_check",
        lattice={"L": 64, "theta": 0.3, "boundary": "open"},
        params={"cell": 32},
    )
    assert main(["run", str(p), "--quiet"]) == 0
    assert _checks(tmp_path / "out")["image_residual_plus"]["passed"]


def test_image_residual_check_fails_on_a_broken_coin(tmp_path, monkeypatch):
    # a coin that leaves a filled cell unsigned breaks the fermionic image;
    # the run must write a failing manifest, not end in a traceback
    p = make_config(
        tmp_path, experiment="heisenberg_check", lattice={"L": 8, "theta": 0.3}, params={"cell": 4}
    )
    coin = evolution.coin_matrix

    def flipped(theta, bosonic=False):
        gate = coin(theta, bosonic)
        gate[3, 3] *= -1
        return gate

    monkeypatch.setattr(evolution, "coin_matrix", flipped)
    evolution._step_layers.cache_clear()
    try:
        assert main(["run", str(p), "--quiet"]) == 1
    finally:
        evolution._step_layers.cache_clear()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["ok"] is False
    for eps in ("plus", "minus"):
        residual = _checks(tmp_path / "out")[f"image_residual_{eps}"]
        assert not residual["passed"] and residual["measured"] > residual["tolerance"] == 1e-12


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_heisenberg_edge_cells_run(tmp_path, boundary):
    # every cell of either boundary runs and passes, the edges and the seam
    # included; a cell off the lattice is rejected
    for cell in (0, 7):
        p = make_config(
            tmp_path,
            experiment="heisenberg_check",
            lattice={"L": 8, "theta": 0.3, "boundary": boundary},
            params={"cell": cell},
            output_dir=str(tmp_path / str(cell)),
        )
        assert main(["validate", str(p)]) == 0
        assert main(["run", str(p), "--quiet"]) == 0
    for cell in (-1, 8):
        p = make_config(
            tmp_path,
            experiment="heisenberg_check",
            lattice={"L": 8, "theta": 0.3, "boundary": boundary},
            params={"cell": cell},
        )
        assert main(["validate", str(p)]) == 2
        assert main(["run", str(p), "--quiet"]) == 2


MIXED_ROWS = [
    (0, 1, 0.5),
    [1, 2, np.float64(0.1)],
    (True, "x", -0.0),
    ("remove_minus", np.float64(-1e-300), float("inf")),
    (np.int64(7), np.float32(0.1), float("nan")),
    (2.0, 3, "100%s"),
]


def assert_csv_round_trips(path: Path, header: list[str], rows) -> None:
    """path holds header and rows, each field as its str; each float (a Python
    float or an np.float64) parses back from that text bit for bit."""
    rows = [tuple(row) for row in rows]
    # compared whole: a text field may itself hold a newline
    lines = [",".join(header), *(",".join(map(str, row)) for row in rows)]
    assert path.read_bytes().decode() == "\n".join(lines) + "\n"
    floats = [v for row in rows for v in row if isinstance(v, float)]
    assert all(_same_float(str(v), v) for v in floats)


@pytest.mark.parametrize("rows", [MIXED_ROWS, [EDGE_FLOATS], []], ids=["mixed", "edge", "empty"])
def test_write_csv_round_trips(tmp_path, rows):
    header = [f"h{i}" for i in range(len(rows[0]) if rows else 3)]
    write_csv(tmp_path / "out.csv", header, rows)
    assert_csv_round_trips(tmp_path / "out.csv", header, rows)


@pytest.mark.parametrize("row", [(), ("a",), (1, 2), (1, 2, 3, 4)])
def test_write_csv_rejects_a_row_off_the_header_width(tmp_path, row):
    with pytest.raises(TypeError):
        write_csv(tmp_path / "out.csv", ["a", "b", "c"], [(0, 1, 2), row])


FIELDS = st.one_of(
    st.integers(),
    st.floats(),
    st.floats().map(np.float64),
    st.booleans(),
    st.text(max_size=5),
)


# (width, rows of that width)
TABLES = st.integers(0, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.lists(FIELDS, min_size=n, max_size=n), max_size=6))
)


@given(TABLES)
@example((1, [["\n"]]))
def test_write_csv_round_trips_on_random_rows(tmp_path_factory, table):
    width, rows = table
    header = [f"h{i}" for i in range(width)]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, header, rows)
    assert_csv_round_trips(path, header, rows)
