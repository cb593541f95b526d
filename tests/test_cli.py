"""Tests for the command-line front end: flags, exit codes, serialization."""

import argparse
import ast
import importlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistorlab
from twistorlab import __version__
from twistorlab import cli
from twistorlab.cli import dump_json, main, thread_cap
from twistorlab.connection import lee_components
from twistorlab.manifold import (BUILTIN_NAMES, J_STANDARD, HermitianSurface, MetricEvaluationError,
                                 adapted_frame, builtin, parse_surface_spec, stack_field)

GOOD_SURFACE = """\
coords x1 x2 x3 x4
domain x1 -1 1
domain x2 -1 1
domain x3 -1 1
domain x4 -1 1
g 1 1 = 1
g 2 2 = 1
g 3 3 = 1
g 4 4 = 1
J standard
"""

BAD_SURFACE = GOOD_SURFACE.replace("g 1 1 = 1", "g 1 1 = -1")

# passes the 16-point validation but is singular on the hyperplane x1 = 0,
# where the first seed-0 sample point of a five-point report lies
SINGULAR_SURFACE = (GOOD_SURFACE.replace("g 1 1 = 1", "g 1 1 = 1/x1^2")
                    .replace("g 2 2 = 1", "g 2 2 = 1/x1^2"))

# passes the validation, but its J sends d1 to the second Gram-Schmidt seed
# d3, so the adapted frame is degenerate everywhere
SWAPPED_J_SURFACE = GOOD_SURFACE.replace("J standard\n", "J 3 1 = 1\nJ 1 3 = -1\nJ 4 2 = 1\nJ 2 4 = -1\n")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    return code, json.loads(out)


# ======================================================================
# serialization
# ======================================================================

def test_json_floats_carry_seventeen_significant_digits():
    text = dump_json({"v": 1.0 / 3.0})
    assert '"v": 0.33333333333333331' in text
    assert json.loads(text)["v"] == 1.0 / 3.0


def _reference_dump_json(obj) -> str:
    """The recursive emitter dump_json replaced: one call per value, and
    json.dumps for every string and key."""
    out = []

    def emit(obj, level):
        pad = "  " * level
        if obj is None:
            out.append("null")
        elif obj is True:
            out.append("true")
        elif obj is False:
            out.append("false")
        elif isinstance(obj, (int, np.integer)):
            out.append(str(int(obj)))
        elif isinstance(obj, (float, np.floating)):
            if not math.isfinite(obj):
                raise ValueError("non-finite number in report")
            out.append(format(float(obj), ".17g"))
        elif isinstance(obj, str):
            out.append(json.dumps(obj))
        elif isinstance(obj, (list, tuple)):
            if not obj:
                out.append("[]")
                return
            out.append("[\n")
            for n, item in enumerate(obj):
                out.append(pad + "  ")
                emit(item, level + 1)
                out.append(",\n" if n + 1 < len(obj) else "\n")
            out.append(pad + "]")
        elif isinstance(obj, dict):
            if not obj:
                out.append("{}")
                return
            out.append("{\n")
            items = list(obj.items())
            for n, (key, value) in enumerate(items):
                out.append(pad + "  " + json.dumps(str(key)) + ": ")
                emit(value, level + 1)
                out.append(",\n" if n + 1 < len(items) else "\n")
            out.append(pad + "}")
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")

    emit(obj, 0)
    return "".join(out) + "\n"


@pytest.mark.parametrize("argv", [
    ["report", "--surface", "cp2_fs", "--params", "c=2", "--lambda", "1", "--lambda1", "1.3",
     "--lambda2", "0.7", "--lambda3", "2.1", "--points", "2"],
    ["scan", "--surface", "hopf", "--connection", "chern", "--lambda-range", "0.5:2.5", "--grid", "7"],
    ["verify", "--suite", "all"],
    ["appendix"],
])
def test_dump_json_has_the_bytes_of_the_reference_emitter(argv, monkeypatch, capsys):
    from twistorlab import cli
    docs = []
    monkeypatch.setattr(cli, "dump_json", lambda doc: (docs.append(doc), dump_json(doc))[1])
    assert main(argv + ["--format", "json"]) == 0
    capsys.readouterr()
    assert len(docs) == 1
    assert dump_json(docs[0]) == _reference_dump_json(docs[0])


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
            | st.text() | st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32)
            | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
            | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
            | st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32))
_DOCUMENTS = st.recursive(_SCALARS, lambda inner: (
    st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text() | st.integers(), inner, max_size=5)), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_dump_json_matches_the_reference_emitter_on_nested_documents(doc):
    assert dump_json(doc) == _reference_dump_json(doc)


@pytest.mark.parametrize("bad,error", [
    ([1.0, {"a": float("nan")}], ValueError), ({"a": [np.float64("inf")]}, ValueError),
    ({"a": [1, {2, 3}]}, TypeError), ([np.bool_(True)], TypeError), ([b"bytes"], TypeError),
])
def test_dump_json_refuses_what_the_reference_emitter_refuses(bad, error):
    for emitter in (dump_json, _reference_dump_json):
        with pytest.raises(error):
            emitter(bad)


def _reference_json_text(obj, pad: str) -> str:
    """The writer the bulk %-formats replaced: one format call per number."""
    kind = type(obj)
    if kind is float:
        return cli._format_float(obj)
    if kind is str:
        return cli._quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return cli._format_float(float(obj))
    if isinstance(obj, str):
        return cli._quote(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_reference_json_text(item, inner) for item in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [cli._quote(str(key)) + ": " + _reference_json_text(value, inner)
                 for key, value in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_FINITE = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e308, -1e308, 0.1]))
_INTS = st.integers() | st.integers(-3, 3)
# values that must leave the bulk path: a bool is an int, np.float64 a float
_OFF_PATH = (st.booleans() | st.none() | st.text(max_size=3) | _FINITE.map(np.float64)
             | st.integers(-5, 5).map(np.int64) | st.lists(_FINITE, max_size=2))


@st.composite
def _float_lists(draw):
    """A list of 0-300 plain floats, drawn from a small pool."""
    pool = draw(st.lists(_FINITE, min_size=1, max_size=6))
    n, start = draw(st.integers(0, 300)), draw(st.integers(0, 5))
    return [pool[(start + 7 * k) % len(pool)] for k in range(n)]


@st.composite
def _row_lists(draw):
    """0-300 dicts with the same keys (unicode text, or an int 0 or 1), each
    key's values plain ints or plain floats from a small pool; sometimes one
    row breaks the pattern with another value type, key order or key set,
    or with the key False or True in place of an equal int key."""
    keys = draw(st.lists(st.text(max_size=4) | st.integers(0, 1), min_size=1, max_size=4, unique=True))
    pools = [draw(st.lists(_INTS if draw(st.booleans()) else _FINITE, min_size=1, max_size=4))
             for _ in keys]
    n, start = draw(st.integers(0, 300)), draw(st.integers(0, 5))
    rows = [{key: pool[(start + 3 * k) % len(pool)] for key, pool in zip(keys, pools)}
            for k in range(n)]
    if rows and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        row = rows[k]
        change = draw(st.sampled_from(["value", "order", "missing", "extra", "alias"]))
        if change == "alias":
            rows[k] = {bool(key) if type(key) is int else key: value for key, value in row.items()}
        elif change == "value":
            row[draw(st.sampled_from(keys))] = draw(_OFF_PATH | _INTS | _FINITE)
        elif change == "order":
            row.update((key, row.pop(key)) for key in list(row)[:1])
        elif change == "missing":
            del row[draw(st.sampled_from(keys))]
        else:
            row[draw(st.text(max_size=4))] = draw(_FINITE)
    return rows


_BULK_DOCUMENTS = st.recursive(_SCALARS | _float_lists() | _row_lists(), lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text() | st.integers(), inner, max_size=4)), max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(_BULK_DOCUMENTS)
def test_the_bulk_writer_has_the_bytes_of_the_one_call_per_number_writer(doc):
    got, want = dump_json(doc), _reference_json_text(doc, "") + "\n"
    assert got.splitlines() == want.splitlines() and got == want     # a list diff is quick to print


@settings(max_examples=200, deadline=None)
@given(st.one_of(_float_lists(), _row_lists()).filter(bool), st.data(),
       st.sampled_from([math.inf, -math.inf, math.nan]))
def test_a_non_finite_number_in_a_bulk_list_raises_the_reference_error(items, data, bad):
    k = data.draw(st.integers(0, len(items) - 1))
    if isinstance(items[k], dict):
        items[k][data.draw(st.sampled_from(list(items[k]) or ["k"]))] = bad
    else:
        items[k] = bad
    doc = {"before": [1.5, 2], "items": items}
    with pytest.raises(ValueError) as want:
        _reference_json_text(doc, "")
    with pytest.raises(ValueError) as got:
        dump_json(doc)
    assert str(got.value) == str(want.value) == "non-finite number in report"


def test_json_handles_the_document_vocabulary():
    doc = {"a": None, "b": True, "c": [1, 2.5], "d": {"e": "s"}, "f": (),
           "g": np.float64(0.5), "h": np.int64(3)}
    parsed = json.loads(dump_json(doc))
    assert parsed == {"a": None, "b": True, "c": [1, 2.5], "d": {"e": "s"},
                      "f": [], "g": 0.5, "h": 3}


def test_json_rejects_non_finite_numbers():
    with pytest.raises(ValueError, match="non-finite"):
        dump_json({"v": float("inf")})


def test_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        dump_json({"v": {1, 2}})


# ======================================================================
# appendix
# ======================================================================

def test_appendix_text_table(capsys):
    code, out, _ = run_cli(["appendix"], capsys)
    assert code == 0
    assert "structure-equation residual: 0" in out
    assert "integrable structures: 6 of 8" in out
    assert "nearly-Kahler residuals: 0 0" in out


def test_appendix_json_document(capsys):
    code, doc = run_json(["appendix"], capsys)
    assert code == 0
    assert doc["schema"] == 1
    assert doc["version"] == __version__
    assert doc["command"] == "appendix"
    assert doc["structure_equation_residual"] == 0.0
    assert doc["integrable_count"] == 6
    coeffs = {row["i"]: row["dK_coefficient"] for row in doc["rows"]}
    assert coeffs == {1: 1.0, 2: 3.0, 3: -1.0, 4: 1.0}


def test_appendix_one_parameter_coefficients(capsys):
    code, doc = run_json(["appendix", "--lambda", "0.77"], capsys)
    assert code == 0
    lam2 = 0.77 ** 2
    expected = {1: 2.0 - lam2, 2: 2.0 + lam2, 3: -lam2, 4: lam2}
    for row in doc["rows"]:
        assert abs(row["dK_coefficient"] - expected[row["i"]]) < 1e-12


def test_appendix_triple_parameters(capsys):
    code, doc = run_json(["appendix", "--lambda1", "1.3", "--lambda2", "0.7",
                          "--lambda3", "2.1"], capsys)
    assert code == 0
    assert doc["lambda"] == [1.3, 0.7, 2.1]
    for row in doc["rows"]:
        assert row["dK_residual"] == 0.0
        assert row["balanced_norm"] == 0.0


def test_appendix_rejects_mixed_parameter_styles(capsys):
    with pytest.raises(SystemExit) as err:
        main(["appendix", "--lambda", "1", "--lambda1", "1",
              "--lambda2", "1", "--lambda3", "1"])
    assert err.value.code == 2


# ======================================================================
# report
# ======================================================================

def test_report_cp2_near_the_distinguished_parameter(capsys):
    code, doc = run_json(["report", "--surface", "cp2_fs", "--params", "c=2",
                          "--connection", "lichnerowicz", "--lambda", "1.4142",
                          "--points", "5"], capsys)
    assert code == 0
    assert doc["summary"]["symplectic"] == [[1, 1.4142]]
    assert doc["summary"]["integrable"] == [1, 3, 4]
    for flags in doc["base_flags"]:
        assert flags["self_dual"]["holds"] is True
        assert flags["kahler"]["holds"] is True
        assert abs(flags["scalar_curvature"] - 12.0) < 1e-5
    for crossing, residual in doc["zero_crossings"]["1"]:
        assert abs(crossing - 2.0) < 1e-5
        assert residual < 1e-6


def test_report_flat_chern_structure_three(capsys):
    code, doc = run_json(["report", "--surface", "flat_c2", "--connection",
                          "chern", "--lambda", "1", "--points", "2"], capsys)
    assert code == 0
    held = doc["summary"]["symplectic"]
    assert [3, 1.0] in held and [4, 1.0] in held
    assert [1, 1.0] not in held


def test_report_gauduchon_is_oracle_only(capsys):
    code, doc = run_json(["report", "--surface", "hopf", "--connection",
                          "gauduchon", "--t", "0.5", "--lambda", "1",
                          "--points", "2"], capsys)
    assert code == 0
    assert all(row["formula_residual"] is None for row in doc["rows"])
    assert doc["t"] == 0.5


def test_report_triple_parameters(capsys):
    root2 = repr(math.sqrt(2.0))
    code, doc = run_json(["report", "--surface", "cp2_fs", "--params", "c=2",
                          "--lambda1", "1", "--lambda2", "1", "--lambda3", root2,
                          "--points", "2"], capsys)
    assert code == 0
    rows = {row["i"]: row for row in doc["triple_rows"]}
    assert rows[1]["symplectic"]["defect"] < 1e-6
    assert rows[2]["symplectic"]["defect"] > 1.0
    assert all(rows[i]["formula_residual"] < 1e-6 for i in (1, 2, 3, 4))
    assert "rows" not in doc


def test_report_with_lambdas_and_a_triple_builds_one_sweep_and_coframe_per_point(monkeypatch, capsys):
    # one stacked sweep, whose coframe the formula rows read: one
    # coframe_rows call, over each bundle point once and its 24 stencil points
    from twistorlab import twistor as tw
    built = []
    rows = tw.coframe_rows
    monkeypatch.setattr(tw, "coframe_rows", lambda M, t, y=None: (built.append([len(p) for _, p in M]),
                                                                   rows(M, t, y))[1])
    code, doc = run_json(["report", "--surface", "hopf", "--connection", "chern", "--lambda", "1",
                          "--lambda1", "1.3", "--lambda2", "0.7", "--lambda3", "2.1",
                          "--points", "2"], capsys)
    assert code == 0
    assert built == [[2 * 25]]
    assert [row["i"] for row in doc["triple_rows"]] == [1, 2, 3, 4]
    assert list(doc)[-2:] == ["triple_rows", "summary"]


def test_report_output_is_byte_stable(capsys):
    argv = ["report", "--surface", "cp2_fs", "--params", "c=2", "--lambda",
            "1.2", "--points", "2", "--format", "json"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_report_text_mode(capsys):
    code, out, _ = run_cli(["report", "--surface", "flat_c2", "--lambda", "1",
                            "--points", "2"], capsys)
    assert code == 0
    assert "base conditions" in out
    assert "symplectic rows:" in out


def test_report_writes_atomically(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["report", "--surface", "flat_c2", "--lambda", "1",
                            "--points", "1", "--format", "json",
                            "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["schema"] == 1
    assert list(tmp_path.iterdir()) == [target]


# ======================================================================
# scan
# ======================================================================

def test_scan_locates_the_projective_plane_crossing(capsys):
    code, doc = run_json(["scan", "--surface", "cp2_fs", "--params", "c=2",
                          "--lambda-range", "1:2", "--grid", "5",
                          "--points", "2"], capsys)
    assert code == 0
    crossing = doc["zero_crossings"]["1"]
    assert abs(crossing["lambda"] - math.sqrt(2.0)) < 1e-6
    assert crossing["residual"] < 1e-6
    assert doc["zero_crossings"]["2"] is None
    sym = {(r["i"], r["lambda"]): r["symplectic_defect"] for r in doc["rows"]}
    assert sym[(2, 1.0)] < sym[(2, 2.0)]           # monotone growth, no zero


def test_scan_flat_third_structure_is_identically_closed(capsys):
    code, doc = run_json(["scan", "--surface", "flat_c2", "--i", "3",
                          "--lambda-range", "0.5:2", "--grid", "4",
                          "--points", "1"], capsys)
    assert code == 0
    assert all(r["symplectic_defect"] < 1e-9 for r in doc["rows"])
    assert doc["zero_crossings"]["3"] is None


def test_scan_accepts_explicit_grid_values(capsys):
    code, doc = run_json(["scan", "--surface", "flat_c2", "--i", "1",
                          "--lambda", "1", "--lambda", "2", "--points", "1"],
                         capsys)
    assert code == 0
    assert doc["grid"] == [1.0, 2.0]


def test_scan_takes_one_weighted_sum_per_point(monkeypatch, capsys):
    from twistorlab.twistor import CoframeSweep
    calls, tables = [0], []
    dK, defect_rows = CoframeSweep.dK, CoframeSweep.defect_rows

    def counted_dK(self, i, lam):
        calls[0] += 1
        return dK(self, i, lam)

    def counted_rows(self, weights):
        tables.append(weights.shape)
        return defect_rows(self, weights)

    monkeypatch.setattr(CoframeSweep, "dK", counted_dK)
    monkeypatch.setattr(CoframeSweep, "defect_rows", counted_rows)
    code, doc = run_json(["scan", "--surface", "hopf", "--connection", "chern",
                          "--lambda-range", "0.5:2", "--grid", "5", "--points", "2"], capsys)
    assert code == 0
    # one weight table of all (i, lambda) rows for the stack of both points;
    # no per-row dK, and the closed-form crossing takes none either
    assert tables == [(4 * 5, 3)]
    assert calls[0] == 0


def test_scan_hands_its_grid_on_as_python_floats(monkeypatch, capsys):
    seen = []
    weights = cli.lambda_weights

    def recorded(pairs):
        seen.extend(pairs)
        return weights(pairs)

    monkeypatch.setattr(cli, "lambda_weights", recorded)
    code, doc = run_json(["scan", "--surface", "hopf", "--lambda", "0.7", "--lambda-range", "0.5:2",
                          "--grid", "5", "--points", "1"], capsys)
    assert code == 0 and len(seen) == 4 * 6
    assert {type(lam) for _, lam in seen} == {float} and len(doc["grid"]) == 6


def _reference_hermitian_invariants(surfaces, seed):
    herm = 0.0
    for M in surfaces.values():
        for x in M.chart.interior_points(6, seed=seed):
            g = M.metric(x)
            Jm = M.J(x)
            herm = max(herm, float(np.max(np.abs(g - g.T))))
            herm = max(herm, float(max(0.0, 1e-8 - np.min(np.linalg.eigvalsh(g)))))
            herm = max(herm, float(np.max(np.abs(Jm @ Jm + np.eye(4)))))
            herm = max(herm, float(np.max(np.abs(Jm.T @ g @ Jm - g))))
    return herm


def _invariant_surfaces(rotated):
    """The built-ins, which hold every invariant exactly, or surfaces on
    their charts whose J is a rotated standard J, R J0 R^T, so that J J + 1
    and J^T g J - g carry roundoff and the worst value is not 0."""
    if not rotated:
        return {name: builtin(name) for name in BUILTIN_NAMES}
    R = np.linalg.qr(np.arange(16.0).reshape(4, 4) ** 0.5 + np.eye(4))[0]
    J = R @ J_STANDARD @ R.T
    return {name: HermitianSurface(builtin(name).chart, lambda x: (1.5 + np.sin(x[0]) ** 2) * np.eye(4),
                                   lambda x: J) for name in BUILTIN_NAMES}


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 5, 17, 600])
def test_stacked_hermitian_invariants_have_the_bits_of_the_per_point_check(seed, rotated):
    checks = cli._suite_algebra(_invariant_surfaces(rotated), 2, seed)
    got = next(c["worst"] for c in checks if c["name"] == "algebra:hermitian-invariants")
    assert got == _reference_hermitian_invariants(_invariant_surfaces(rotated), seed)
    assert (got > 0.0) == rotated


def test_scan_rows_agree_with_the_per_row_forms(capsys):
    from twistorlab.exterior import wedge
    from twistorlab.manifold import builtin
    from twistorlab.twistor import CoframeSweep, K_form, sample_twistor_points
    code, doc = run_json(["scan", "--surface", "cp2_fs", "--params", "c=2", "--lambda", "1.4142135623730951",
                          "--lambda-range", "0.5:2.5", "--grid", "7", "--points", "2"], capsys)
    assert code == 0
    M = builtin("cp2_fs", c=2.0)
    sweeps = [CoframeSweep(M, "lichnerowicz", z) for z in sample_twistor_points(M, 2, seed=doc["seed"])]
    assert len(doc["rows"]) == 4 * 8
    for row in doc["rows"]:
        i, lam = row["i"], row["lambda"]
        sym = max(sw.dK(i, lam).norm() for sw in sweeps)
        bal = max(wedge(K_form(i, lam, sw.coframe), sw.dK(i, lam)).norm() for sw in sweeps)
        assert abs(row["symplectic_defect"] - sym) <= 1e-13
        assert abs(row["balanced_defect"] - bal) <= 1e-13


def test_scan_rejects_an_empty_grid(capsys):
    with pytest.raises(SystemExit) as err:
        main(["scan", "--surface", "flat_c2"])
    assert err.value.code == 2


def test_scan_rejects_a_backward_range(capsys):
    with pytest.raises(SystemExit) as err:
        main(["scan", "--surface", "flat_c2", "--lambda-range", "2:1"])
    assert err.value.code == 2


# ======================================================================
# verify
# ======================================================================

def test_verify_appendix_suite(capsys):
    code, out, _ = run_cli(["verify", "--suite", "appendix"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert "9/9 checks passed" in out


def test_verify_algebra_suite(capsys):
    code, doc = run_json(["verify", "--suite", "algebra"], capsys)
    assert code == 0
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "algebra:wedge-laws" in names
    assert "algebra:curvature-symmetries" in names


def test_verify_algebra_suite_builds_each_builtin_once(monkeypatch, capsys):
    from twistorlab import cli
    built = []
    builtin = cli.builtin
    monkeypatch.setattr(cli, "builtin", lambda name, **k: (built.append(name), builtin(name, **k))[1])
    assert main(["verify", "--suite", "algebra"]) == 0
    capsys.readouterr()
    assert built == ["flat_c2", "cp2_fs", "ch2", "hopf"]


def test_verify_oracle_suite(capsys):
    code, doc = run_json(["verify", "--suite", "oracle", "--points", "1"],
                         capsys)
    assert code == 0
    assert doc["passed"] is True
    assert len(doc["checks"]) == 8
    assert all(c["worst"] < 1e-4 for c in doc["checks"])


def _reference_suite_oracle(surfaces, n_points, seed, tol):
    """The oracle suite as a loop over the surfaces, one stack per (surface,
    connection): the per-surface job loop that the stacked suite replaced."""
    from twistorlab.exterior import cut, norms, weighted_sum
    from twistorlab.twistor import CoframeSweep, TwistorCoframe, lambda_weights, sample_twistor_points
    checks = []
    weights = lambda_weights([(i, lam) for i in (1, 2, 3, 4) for lam in (0.5, 1.0, math.sqrt(2.0))])
    for name, M in surfaces.items():
        points = sample_twistor_points(M, n_points, seed=seed)
        for conn in ("lichnerowicz", "chern"):
            oracle = weighted_sum(weights, CoframeSweep.stack(M, conn, points).dW_coeffs)
            formula = weighted_sum(weights, TwistorCoframe.stack(M, conn, points).dW_coeffs)
            worst = float(np.max(norms(cut(formula - oracle))))
            checks.append(cli._check(f"oracle:{name}:{conn}", worst, tol,
                                     detail=f"{n_points} points, i in 1..4, lambda in {{0.5, 1, sqrt2}}"))
    return checks


def _builtins():
    return {name: builtin(name) for name in BUILTIN_NAMES}


@pytest.mark.parametrize("seed", [0, 5, 17])
@pytest.mark.parametrize("n_points", [1, 2, 3])
def test_the_stacked_oracle_suite_has_the_checks_of_the_loop_over_surfaces(seed, n_points):
    # each side on fresh surfaces, so neither reads what the other stored
    want = _reference_suite_oracle(_builtins(), n_points, seed, 1e-4)
    got = cli._suite_oracle(_builtins(), n_points, seed, 1e-4)
    assert got == want and len(got) == 8


def _surfaces_of(M, x):
    """The surfaces of a call on the surface M at the points x, or on the
    segments M (x None)."""
    return [M] if x is not None else [S for S, _ in M]


def test_a_failing_oracle_suite_raises_the_error_of_the_loop_over_surfaces(monkeypatch):
    # cp2_fs fails its Chern formula (the Chern curvature, built on first
    # use), and the later hopf its Lichnerowicz sweep: a stacked pass meets
    # the hopf error first, the loop over surfaces the cp2_fs one
    from twistorlab import twistor as tw
    surfaces = _builtins()
    early, late = surfaces["cp2_fs"], surfaces["hopf"]
    curvature_rows, coframe_rows = tw.curvature_rows, tw.coframe_rows

    def failing_curvature(M, x, t):
        if early in _surfaces_of(M, x):
            raise tw.DegenerateCoframeError(None, "the Chern formula of an early surface")
        return curvature_rows(M, x, t)

    def failing_coframe(M, t, y=None):
        if late in _surfaces_of(M, y) and t == 0.0:
            raise tw.DegenerateCoframeError(None, "the Lichnerowicz sweep of a later surface")
        return coframe_rows(M, t, y)

    monkeypatch.setattr(tw, "curvature_rows", failing_curvature)
    monkeypatch.setattr(tw, "coframe_rows", failing_coframe)
    with pytest.raises(tw.DegenerateCoframeError) as want:
        _reference_suite_oracle(surfaces, 2, 0, 1e-4)
    with pytest.raises(tw.DegenerateCoframeError) as got:
        cli._suite_oracle(surfaces, 2, 0, 1e-4)
    assert str(got.value) == str(want.value)
    assert "Chern formula of an early surface" in str(got.value)


def test_a_later_surface_that_cannot_be_sampled_fails_after_the_earlier_sweeps(monkeypatch):
    # cp2_fs fails its Lichnerowicz sweep and the later hopf its sampling:
    # the loop over surfaces meets the sweep first, so the sampling belongs
    # to the replayed pass
    from twistorlab import twistor as tw
    surfaces = _builtins()
    early, late = surfaces["cp2_fs"], surfaces["hopf"]
    sample, coframe_rows = tw.sample_twistor_points, tw.coframe_rows

    def failing_sample(M, n, seed):
        if M is late:
            raise ValueError("the sampling of a later surface")
        return sample(M, n, seed=seed)

    def failing_coframe(M, t, y=None):
        if early in _surfaces_of(M, y) and t == 0.0:
            raise tw.DegenerateCoframeError(None, "the Lichnerowicz sweep of an early surface")
        return coframe_rows(M, t, y)

    for module in (tw, cli):
        monkeypatch.setattr(module, "sample_twistor_points", failing_sample)
    monkeypatch.setattr(tw, "coframe_rows", failing_coframe)
    with pytest.raises(ValueError) as want:
        _reference_suite_oracle(surfaces, 2, 0, 1e-4)
    with pytest.raises(ValueError) as got:
        cli._suite_oracle(surfaces, 2, 0, 1e-4)
    assert str(got.value) == str(want.value)
    assert "Lichnerowicz sweep of an early surface" in str(got.value)


def _counting_builtin(seen):
    """`builtin`, whose surfaces' compiled metrics record the size of every
    stack they evaluate, as test_connection's `_counting_cp2` does."""
    def build(name, **params):
        base = builtin(name, **params)
        compiled = base._metric
        return HermitianSurface(base.chart,
                                stack_field(lambda x: (seen.append(len(np.reshape(x, (-1, 4)))),
                                                       compiled(x))[1]),
                                base.J, name=base.name, params=base.params, backend=base.backend)
    return build


@pytest.mark.parametrize("seed", [0, 3])
def test_one_verify_op_evaluates_the_compiled_metrics_once_per_sampled_curvature(
        seed, monkeypatch, capsys):
    # the curvature check reads levi_civita at the oracle's sample points,
    # which the oracle's Lichnerowicz formula then finds in the memo: 1 120
    # points in 12 stacked calls (16 while the curvature read the base table
    # at its points and at their stencils in two passes, 20 while the
    # Christoffel symbols read the metric at their stencils apart from the
    # frame fields), against 1 636 in 28 while the check had four points of
    # its own
    seen = []
    monkeypatch.setattr(cli, "builtin", _counting_builtin(seen))
    assert main(["verify", "--suite", "all", "--seed", str(seed)]) == 0
    capsys.readouterr()
    assert (sum(seen), len(seen)) == (1120, 12)


def _count_bodies(monkeypatch, memoized, label, counts):
    """Count the runs of the body of a `point_memo` function: its closure
    holds the body, which the memo calls once per stacked pass."""
    cell = next(c for c in memoized.__closure__ if c.cell_contents is memoized.__wrapped__)
    body = cell.cell_contents
    monkeypatch.setattr(cell, "cell_contents", lambda *a: (counts.append(label), body(*a))[1])


@pytest.mark.parametrize("seed", [0, 3])
def test_one_verify_op_runs_each_stacked_pass_once_over_the_four_built_ins(seed, monkeypatch, capsys):
    # every layer takes the four built-ins as segments of one stack: the
    # Gram-Schmidt of the frame fields and the base table run once for the
    # curvature's points and their dGamma stencils together, omega^t once
    # per connection, and each connection's sweep, whose coframe the formula
    # reads, is one coframe_rows; validation and the algebra suite's
    # Hermitian invariants evaluate g alone, with no frame-field pass
    from twistorlab import connection as cn, manifold as mf, twistor as tw
    counts = []
    for memoized, label in [(cn._base_table, "_base_table"), (cn.levi_civita, "levi_civita"),
                            (cn._omega_rows, "_omega_rows")]:
        _count_bodies(monkeypatch, memoized, label, counts)
    for module, name in ((mf, "_gram_schmidt"), (tw, "coframe_rows"), (tw, "curvature_rows")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _fn=fn, _name=name: (counts.append(_name), _fn(*a))[1])
    assert main(["verify", "--suite", "all", "--seed", str(seed)]) == 0
    capsys.readouterr()
    assert {label: counts.count(label) for label in sorted(set(counts))} == {
        "_base_table": 1, "_gram_schmidt": 1, "_omega_rows": 2, "coframe_rows": 2,
        "curvature_rows": 1, "levi_civita": 1}


@pytest.mark.parametrize("argv", [
    ["report", "--format", "json", "--points", "64", "--surface", "hopf", "--connection", "chern"],
    ["verify", "--suite", "all", "--format", "json", "--points", "48"],
])
def test_a_large_stack_clears_no_point_memo(argv, monkeypatch, capsys):
    # the memo keeps the base rows, the Levi-Civita rows and omega^t at a
    # pass's points, not the frame fields at their stencils: these stacks,
    # the largest that tools/compare_outputs.py runs, stay under
    # POINT_MEMO_LIMIT, so no memo is cleared in the middle of a pass
    from twistorlab import manifold as mf
    clears = []
    clear = mf.PointMemo.clear
    monkeypatch.setattr(mf.PointMemo, "clear", lambda self: (clears.append(len(self)), clear(self))[1])
    assert main(argv) == 0
    capsys.readouterr()
    assert clears == []


@pytest.mark.parametrize("suite", ["all", "oracle", "algebra"])
def test_one_verify_op_samples_each_built_in_once(suite, monkeypatch, capsys):
    # under --suite all the oracle suite reuses the algebra suite's sample
    sample, drawn = cli.sample_twistor_points, []
    monkeypatch.setattr(cli, "sample_twistor_points",
                        lambda M, n, seed: (drawn.append((M.name, n, seed)), sample(M, n, seed=seed))[1])
    assert main(["verify", "--suite", suite, "--seed", "3", "--format", "json"]) == 0
    capsys.readouterr()
    assert drawn == [(name, 2, 3) for name in BUILTIN_NAMES]


def _verify_checks(argv, capsys):
    code, doc = run_json(argv, capsys)
    assert code == 0
    return doc["checks"]


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("n_points", [1, 2, 3])
def test_the_suites_of_verify_all_have_the_checks_of_each_suite_alone(seed, n_points, capsys):
    # under --suite all the oracle reads what the algebra suite stored
    common = ["--seed", str(seed), "--points", str(n_points)]
    every = _verify_checks(["verify", "--suite", "all", *common], capsys)
    for suite in ("oracle", "algebra"):
        alone = _verify_checks(["verify", "--suite", suite, *common], capsys)
        assert [c for c in every if c["name"].startswith(suite + ":")] == alone


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("n_points", [1, 2, 3])
def test_the_curvature_check_is_the_worst_one_point_defect_at_the_oracle_points(seed, n_points):
    from twistorlab.connection import levi_civita
    from twistorlab.twistor import sample_twistor_points
    checks = cli._suite_algebra(_builtins(), n_points, seed)
    got = next(c for c in checks if c["name"] == "algebra:curvature-symmetries")
    want = max(max(levi_civita(M, z.x).defects().values())
               for M in _builtins().values() for z in sample_twistor_points(M, n_points, seed=seed))
    assert got["worst"] == want
    assert got["detail"].startswith(f"{n_points} points, ")


@pytest.mark.parametrize("k", range(7))
def test_the_float_d_squared_product_is_the_integer_product(k):
    # every entry of D_k is at most 4 in absolute value, so the float64
    # product is exact: so is the product of the absolute values, which
    # bounds every partial sum
    from twistorlab.flag import d_matrix
    upper, lower = d_matrix(k + 1), d_matrix(k)
    assert np.array_equal(upper.astype(float) @ lower.astype(float), upper @ lower)
    assert np.array_equal(np.abs(upper).astype(float) @ np.abs(lower).astype(float),
                          np.abs(upper) @ np.abs(lower))


def test_verify_respects_thread_cap(capsys, monkeypatch):
    monkeypatch.setenv("TWISTORLAB_THREADS", "2")
    code, _, _ = run_cli(["verify", "--suite", "appendix"], capsys)
    assert code == 0


def test_thread_cap_defaults_to_one(monkeypatch):
    monkeypatch.delenv("TWISTORLAB_THREADS", raising=False)
    assert thread_cap() == 1


def test_malformed_thread_cap_is_rejected(capsys, monkeypatch):
    monkeypatch.setenv("TWISTORLAB_THREADS", "zero")
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "appendix"])
    assert err.value.code == 2


# ======================================================================
# surface loading and exit codes
# ======================================================================

def test_unknown_surface_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["report", "--surface", "nope"])
    assert err.value.code == 2


def test_gauduchon_requires_t(capsys):
    with pytest.raises(SystemExit) as err:
        main(["report", "--surface", "hopf", "--connection", "gauduchon"])
    assert err.value.code == 2


def test_t_forbidden_outside_the_family(capsys):
    with pytest.raises(SystemExit) as err:
        main(["report", "--surface", "hopf", "--connection", "chern",
              "--t", "0.3"])
    assert err.value.code == 2


def test_surface_file_loads(tmp_path, capsys):
    path = tmp_path / "box.surf"
    path.write_text(GOOD_SURFACE)
    code, doc = run_json(["report", "--surface", str(path), "--lambda", "1",
                          "--points", "1"], capsys)
    assert code == 0
    assert doc["surface"] == "box"


def test_surface_invariant_violation_exits_three(tmp_path, capsys):
    path = tmp_path / "bad.surf"
    path.write_text(BAD_SURFACE)
    with pytest.raises(SystemExit) as err:
        main(["report", "--surface", str(path), "--points", "1"])
    assert err.value.code == 3
    assert "surface invariant violation" in capsys.readouterr().err


def exit_three_line(tmp_path, flags, surface, argv):
    """The one stderr line of a CLI run on the surface text that exits 3."""
    path = tmp_path / "case.surf"
    path.write_text(surface)
    src = os.path.dirname(os.path.dirname(twistorlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "twistorlab.cli", argv[0],
         "--surface", str(path), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    return lines[0]


def assert_singular_surface_exits_three(tmp_path, flags, argv):
    line = exit_three_line(tmp_path, flags, SINGULAR_SURFACE, argv)
    assert line.startswith("twistorlab: surface invariant violation at bundle point [0.0, ")
    assert "Gram determinant" in line


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_degenerate_coframe_exits_three_with_one_line(tmp_path, flags):
    assert_singular_surface_exits_three(tmp_path, flags, ["report", "--points", "5"])


# a metric that passes validation, whose 16 sample points miss the slab
# |a - 0.2| < 0.01 where the square root's argument is negative
HOLE_SURFACE = """\
coords a b c d
g 1 1 = exp(sqrt((a - 0.2)^2 - 0.0001))
g 2 2 = exp(sqrt((a - 0.2)^2 - 0.0001))
J standard
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("argv", [["report", "--points", "120", "--seed", "0"],
                                  ["scan", "--lambda-range", "0.5:2", "--points", "120", "--seed", "0"]])
def test_a_metric_undefined_at_an_evaluated_point_exits_three_naming_it(tmp_path, flags, argv):
    line = exit_three_line(tmp_path, flags, HOLE_SURFACE, argv)
    prefix, suffix = "twistorlab: metric undefined at point [", "]: math domain error"
    assert line.startswith(prefix) and line.endswith(suffix)
    point = [float(v) for v in line[len(prefix):-len(suffix)].split(", ")]
    assert len(point) == 4 and (point[0] - 0.2) ** 2 - 0.0001 < 0       # a point in the slab
    # the first point of the coframe sweep's stack that fails alone
    from twistorlab import twistor as tw
    M = parse_surface_spec(HOLE_SURFACE)
    with pytest.raises(MetricEvaluationError) as info:
        tw.CoframeSweep.stack(M, "lichnerowicz", tw.sample_twistor_points(M, 120, seed=0))
    assert line == f"twistorlab: {info.value}"


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_scan_on_a_singular_surface_exits_three_with_one_line(tmp_path, flags):
    assert_singular_surface_exits_three(
        tmp_path, flags, ["scan", "--lambda-range", "1:2", "--grid", "3", "--points", "5"])


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("argv", [["report", "--points", "1"],
                                  ["scan", "--lambda-range", "1:2", "--grid", "3", "--points", "1"]])
def test_a_surface_without_an_adapted_frame_exits_three_with_one_line(tmp_path, flags, argv):
    line = exit_three_line(tmp_path, flags, SWAPPED_J_SURFACE, argv)
    assert line.startswith("twistorlab: seed degenerate at point [0.0, 0.0, 0.0, 0.0]: ")


USAGE_ERRORS = [
    ["report", "--surface", "cp2_fs", "--points", "0"],
    ["report", "--surface", "cp2_fs", "--points", "-1"],
    ["scan", "--surface", "cp2_fs", "--lambda", "1", "--points", "0"],
    ["verify", "--suite", "oracle", "--points", "0"],
    ["report", "--surface", "cp2_fs", "--lambda", "nan"],
    ["report", "--surface", "cp2_fs", "--lambda", "inf"],
    ["report", "--surface", "cp2_fs", "--lambda1", "1", "--lambda2", "nan", "--lambda3", "1"],
    ["scan", "--surface", "cp2_fs", "--lambda", "nan"],
    ["scan", "--surface", "cp2_fs", "--lambda-range", "1:inf"],
    ["scan", "--surface", "cp2_fs", "--lambda-range", "nan:2"],
    ["appendix", "--lambda", "nan"],
    ["report", "--surface", "cp2_fs", "--tol", "nan"],
    ["report", "--surface", "cp2_fs", "--tol", "0"],
    ["report", "--surface", "cp2_fs", "--nijenhuis-tol", "nan"],
    ["report", "--surface", "cp2_fs", "--nijenhuis-tol", "-0.5"],
    ["scan", "--surface", "cp2_fs", "--lambda", "1", "--tol", "inf"],
    ["verify", "--suite", "algebra", "--tol", "nan"],
    ["report", "--surface", "hopf", "--connection", "gauduchon", "--t", "nan", "--points", "1"],
    ["report", "--surface", "hopf", "--connection", "gauduchon", "--t", "inf", "--points", "1"],
    ["report", "--surface", "cp2_fs", "--params", "c=nan", "--points", "1"],
    ["scan", "--surface", "cp2_fs", "--params", "c=inf", "--lambda", "1"],
    ["report", "--surface", "cp2_fs", "--seed", "-1"],
    ["scan", "--surface", "cp2_fs", "--lambda", "1", "--seed", "-1"],
    ["verify", "--suite", "oracle", "--seed", "-1"],
    ["verify", "--suite", "algebra", "--seed", "-1"],
    ["scan", "--surface", "hopf", "--lambda", "1e160"],
    ["scan", "--surface", "cp2_fs", "--lambda-range", "0.5:1e300", "--grid", "2"],
    ["report", "--surface", "cp2_fs", "--lambda1", "1", "--lambda2", "1", "--lambda3", "1e200"],
    ["appendix", "--lambda", "1e200"],
    ["report", "--surface", "cp2_fs", "--lambda", "1e100"],
    ["report", "--surface", "cp2_fs", "--lambda", "1e100", "--format", "json"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_bad_counts_and_non_finite_numbers_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("twistorlab: error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["verify", "--bogus"],
                                  ["report", "--surface", "cp2_fs", "--points", "abc"],
                                  ["scan", "--surface", "cp2_fs", "--i", "5"]])
def test_an_error_argparse_finds_is_one_stderr_line(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("twistorlab: error: ")


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("argv", [["report", "--surface", "cp2_fs", "--seed", "-1"],
                                  ["report", "--surface", "cp2_fs", "--points", "abc"]])
def test_a_usage_error_is_one_stderr_line_in_a_fresh_interpreter(flags, argv):
    src = os.path.dirname(os.path.dirname(twistorlab.__file__))
    proc = subprocess.run([sys.executable, *flags, "-m", "twistorlab.cli", *argv],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("twistorlab: error: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_surface_parameter_is_named(value, capsys):
    with pytest.raises(SystemExit) as err:
        main(["report", "--surface", "cp2_fs", "--params", f"c={value}", "--points", "1"])
    assert err.value.code == 2
    assert f"--params value for 'c' must be finite, got '{value}'" in capsys.readouterr().err


def test_log_of_a_negative_coordinate_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "log.surf"
    path.write_text(GOOD_SURFACE.replace("g 1 1 = 1", "g 1 1 = 2 + log(x1)^2")
                    .replace("g 2 2 = 1", "g 2 2 = 2 + log(x1)^2"))
    with pytest.raises(SystemExit) as err:
        main(["report", "--surface", str(path), "--points", "1"])
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == ["twistorlab: error: math domain error"]


def test_surface_syntax_error_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "syn.surf"
    path.write_text("coords x1 x2\n")
    with pytest.raises(SystemExit) as err:
        main(["report", "--surface", str(path)])
    assert err.value.code == 2


@pytest.mark.parametrize("written", ["2 + x1^02", "02 + x1^2", "0002 + x1^002"])
def test_an_integer_with_leading_zeros_is_its_decimal_value(written, tmp_path, capsys):
    # as a base or as an exponent; python's grammar refuses 01, so the
    # compiled program would not compile
    outputs = []
    for k, entry in enumerate((written, "2 + x1^2")):
        (tmp_path / str(k)).mkdir()
        path = tmp_path / str(k) / "box.surf"
        path.write_text(GOOD_SURFACE.replace("g 1 1 = 1", f"g 1 1 = {entry}")
                        .replace("g 2 2 = 1", f"g 2 2 = {entry}"))
        outputs.append(run_cli(["report", "--surface", str(path), "--points", "1", "--format", "json"],
                               capsys))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_bad_params_are_usage_errors(capsys):
    for argv in (["report", "--surface", "cp2_fs", "--params", "c"],
                 ["report", "--surface", "cp2_fs", "--params", "c=two"],
                 ["report", "--surface", "cp2_fs", "--lambda", "1e-9"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert __version__ in capsys.readouterr().out


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message: str):
        self.exit(2, f"twistorlab: error: {message}\n")


def _reference_build_parser() -> argparse.ArgumentParser:
    """The parser with every command's options added up front."""
    parser = _ReferenceParser(
        prog="twistorlab",
        description="Condition reports, verification suites, and parameter scans "
                    "for almost-Hermitian twistor structures.")
    parser.add_argument("--version", action="version",
                        version=f"twistorlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ReferenceParser)

    rp = sub.add_parser("report", help="survey symplectic/balanced/integrability "
                                       "conditions on a surface")
    cli._add_surface_options(rp)
    cli._add_lambda_options(rp)
    rp.add_argument("--points", type=int, default=3, help="sample points (default: 3)")
    rp.add_argument("--seed", type=int, default=0, help="sample seed (default: 0)")
    rp.add_argument("--tol", type=float, default=1e-3,
                    help="defect tolerance for the yes/no verdicts (default: 1e-3)")
    rp.add_argument("--nijenhuis-tol", type=float, default=1e-4,
                    help="integrability tolerance (default: 1e-4)")
    cli._add_io_options(rp)

    vp = sub.add_parser("verify", help="run the invariant battery, exit 0 iff clean")
    vp.add_argument("--suite", choices=("appendix", "oracle", "algebra", "all"),
                    default="all", help="which battery to run (default: all)")
    vp.add_argument("--points", type=int, default=2,
                    help="sample points per built-in, for the oracle and algebra suites "
                         "(default: 2)")
    vp.add_argument("--seed", type=int, default=0, help="sample seed (default: 0)")
    vp.add_argument("--tol", type=float, default=1e-4,
                    help="formula-vs-oracle tolerance (default: 1e-4)")
    cli._add_io_options(vp)

    sp = sub.add_parser("scan", help="sweep the fiber scale and locate "
                                     "symplectic zero crossings")
    cli._add_surface_options(sp)
    sp.add_argument("--i", type=int, choices=(1, 2, 3, 4), default=None,
                    help="restrict to one structure (default: all four)")
    sp.add_argument("--lambda", dest="lam", metavar="L", type=float,
                    action="append", default=None,
                    help="explicit grid value; may be repeated")
    sp.add_argument("--lambda-range", metavar="LO:HI", default=None,
                    help="inclusive lambda range, gridded with --grid")
    sp.add_argument("--grid", type=int, default=9,
                    help="grid size for --lambda-range (default: 9)")
    sp.add_argument("--points", type=int, default=2, help="sample points (default: 2)")
    sp.add_argument("--seed", type=int, default=0, help="sample seed (default: 0)")
    sp.add_argument("--tol", type=float, default=1e-6,
                    help="max defect at an accepted crossing (default: 1e-6)")
    cli._add_io_options(sp)

    ap = sub.add_parser("appendix", help="print the exact flag-manifold table")
    cli._add_lambda_options(ap)
    cli._add_io_options(ap)

    return parser


COMMANDS = ("report", "verify", "scan", "appendix")


def _subparsers(parser):
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("columns", ["80", "52", "140"])
def test_help_and_usage_have_the_bytes_of_the_eager_parser(columns, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    new, old = cli.build_parser(), _reference_build_parser()
    assert new.format_usage() == old.format_usage()
    assert new.format_help() == old.format_help()
    for command in COMMANDS:
        # usage first, on a parser whose options are not added yet
        assert _subparsers(new)[command].format_usage() == _subparsers(old)[command].format_usage()
    for command in COMMANDS:
        new = cli.build_parser()
        assert _subparsers(new)[command].format_help() == _subparsers(old)[command].format_help()


BAD_ARGVS = [
    [], ["frobnicate"], ["--bogus"], ["report"], ["scan", "--i", "5"], ["report", "--bogus"],
    ["verify", "--suite", "everything"], ["verify", "--points"], ["appendix", "--lambda", "x"],
    ["scan", "--surface", "cp2_fs", "--grid", "two"], ["report", "--surface", "cp2_fs", "--connection", "levi"],
    ["appendix", "--format", "xml"], ["report", "--surface", "cp2_fs", "extra"],
    ["--help"], *([command, "--help"] for command in COMMANDS), ["appendix", "-h"], ["--version"],
]


@pytest.mark.parametrize("argv", BAD_ARGVS)
def test_bad_argvs_and_help_exit_with_the_bytes_of_the_eager_parser(argv, capsys):
    results = []
    for build in (cli.build_parser, _reference_build_parser):
        with pytest.raises(SystemExit) as err:
            build().parse_args(argv)
        captured = capsys.readouterr()
        results.append((err.value.code, captured.out, captured.err))
    assert results[0] == results[1]
    assert results[0][0] in (0, 2) and (results[0][1] or results[0][2])


@pytest.mark.parametrize("command", COMMANDS)
def test_an_invocation_adds_the_options_of_its_own_command_only(command):
    parser = cli.build_parser()
    argv = {"report": ["report", "--surface", "hopf"], "scan": ["scan", "--surface", "hopf"]}
    args = parser.parse_args(argv.get(command, [command]))
    assert vars(args) == vars(_reference_build_parser().parse_args(argv.get(command, [command])))
    # the parsers held, read past the lazy lookup: only the invoked one is built
    built = {name for name, sp in dict.items(_subparsers(parser)) if isinstance(sp, argparse.ArgumentParser)}
    assert built == {command}
    assert len(_subparsers(parser)[command]._actions) > 1


def test_every_traced_benchmark_boundary_resolves():
    # perfbench/tracer.py patches these names from outside the package; a
    # name that no longer resolves would break a traced benchmark run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED")
    assert traced
    for module, path in traced:
        obj = importlib.import_module(f"twistorlab.{module}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"twistorlab.{module}.{path}"
            obj = getattr(obj, attr)
        assert callable(obj), f"twistorlab.{module}.{path}"


def test_every_imported_name_is_used_or_exported():
    # an import that the module neither reads nor lists in __all__ is a name
    # a reader has to rule out
    package = os.path.dirname(twistorlab.__file__)
    unused = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename)) as fh:
            tree = ast.parse(fh.read())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and ast.unparse(node.targets[0]) == "__all__" for elt in node.value.elts}
        unused += [f"{filename}: {name}" for name in sorted(imported - used - exported)]
    assert unused == []


def test_every_exported_name_resolves():
    # a stale name in __all__ would make `from twistorlab.<module> import *` raise
    package = os.path.dirname(twistorlab.__file__)
    names = ["twistorlab"] + [f"twistorlab.{filename[:-3]}" for filename in sorted(os.listdir(package))
                              if filename.endswith(".py") and filename != "__init__.py"]
    exported = {}
    for name in names:
        module = importlib.import_module(name)
        exported[name] = list(getattr(module, "__all__", ()))
        assert [attr for attr in exported[name] if not hasattr(module, attr)] == [], name
        exec(f"from {name} import *", {})
    assert all(exported[name] for name in ("twistorlab", "twistorlab.twistor", "twistorlab.flag",
                                           "twistorlab.cli"))


def test_no_workload_op_runs_a_multi_operand_einsum(monkeypatch, capsys):
    # numpy runs an einsum of three or more operands as one loop over every
    # index combination; the frame pushes of the curvature and torsion are
    # chains of two-operand contractions, and this keeps them so
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import workloads
    package = os.path.dirname(twistorlab.__file__)
    einsum, calls = np.einsum, []

    def recording(*args, **kwargs):
        frame, callers = sys._getframe(1), set()
        while frame is not None:
            if os.path.dirname(frame.f_code.co_filename) == package:
                callers.add(frame.f_code.co_name)
            frame = frame.f_back
        calls.append((args[0], len(args) - 1, callers))
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    for name in sorted(workloads.TEMPLATES):
        for argv in next(workloads.ops(name, 0)):
            assert main(list(argv)) == 0, argv
    capsys.readouterr()
    # no workload reads the Lee form; the curvature relations do
    M = builtin("hopf")
    x = M.chart.interior_points(1, seed=0)[0]
    lee_components(M, x, adapted_frame(M, x).E)
    guarded = {"_omega_rows", "levi_civita", "_base_table", "lee_components"}
    assert set().union(*(callers for _, _, callers in calls)) >= guarded
    assert [(subscripts, sorted(callers & guarded)) for subscripts, n, callers in calls if n > 2] == []


def test_the_closed_form_path_builds_no_form_and_one_coframe_stack_per_connection(monkeypatch, capsys):
    # a TwistorCoframe holds the rows of a stack of bundle points and builds
    # its dW and K ^ dK brackets with wedge_vectors: no workload op builds a
    # ComplexForm on that path, each (surface, connection) of a report or
    # scan is one coframe_rows call over the points and their stencils, which
    # the sweep and the formula share, verify stacks its four surfaces as four
    # segments of one such call per connection, and a Chern stack never needs
    # the Levi-Civita curvature
    from twistorlab import twistor as tw
    from twistorlab.exterior import ComplexForm
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import workloads
    codes = {tw._structure_dW.__code__, tw._balanced_brackets.__code__}
    for member in vars(tw.TwistorCoframe).values():
        member = getattr(member, "func", getattr(member, "__func__", member))
        if hasattr(member, "__code__"):
            codes.add(member.__code__)

    def coframe_frames():
        frame = sys._getframe(2)
        while frame is not None:
            if frame.f_code in codes:
                yield frame
            frame = frame.f_back

    forms, stacks, lc_connections = [], [], []
    init, rows, levi = ComplexForm.__init__, tw.coframe_rows, tw.levi_civita

    def counted_init(self, *args, **kwargs):
        forms.extend(f.f_code.co_name for f in coframe_frames())
        init(self, *args, **kwargs)

    def counted_levi(M, x=None):
        lc_connections.extend({(f.f_locals.get("self") or f.f_locals.get("co")).t
                               for f in coframe_frames()})
        return levi(M, x)

    monkeypatch.setattr(ComplexForm, "__init__", counted_init)

    def recorded_rows(M, t, y=None):
        stacks.append([len(p) for _, p in M])
        return rows(M, t, y)

    monkeypatch.setattr(tw, "coframe_rows", recorded_rows)
    monkeypatch.setattr(tw, "levi_civita", counted_levi)
    built = {}
    for name in sorted(workloads.TEMPLATES):
        stacks.clear()
        for argv in next(workloads.ops(name, 0)):
            assert main(list(argv)) == 0, argv
        built[name] = list(stacks)
    capsys.readouterr()
    assert forms == []
    # two points and their 24 stencil points each, per surface
    assert built == {"scan": [[50], [50]], "survey": [[50], [50]], "verify": [[50, 50, 50, 50]] * 2}
    assert lc_connections and set(lc_connections) == {0.0}


def test_every_benchmark_hook_resolves_in_the_package(monkeypatch):
    # the benchmark's tracer wraps these names from outside the package, as
    # Tracer.install resolves them: a module attribute (a class traces its own
    # __init__), or a method in its class __dict__; its counters read
    # CoframeSweep(M, conn, z) and nijenhuis_oracle(i, M, conn, z), its
    # selftest passes twistor_coframe a with_structure keyword, and its run
    # reads cli.thread_cap
    import inspect
    from twistorlab import twistor as tw
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import tracer
    for mod, path in tracer.TRACED:
        home = importlib.import_module(f"twistorlab.{mod}")
        owner, _, attr = path.rpartition(".")
        if owner:
            assert attr in vars(getattr(home, owner)), path
        elif isinstance(getattr(home, attr), type):
            assert "__init__" in vars(getattr(home, attr)), path
        else:
            assert callable(getattr(home, attr)), path
    assert callable(cli.thread_cap)
    assert list(inspect.signature(tw.CoframeSweep.__init__).parameters) == ["self", "M", "conn", "z"]
    assert list(inspect.signature(tw.nijenhuis_oracle).parameters) == ["i", "M", "conn", "z"]
    assert "with_structure" in inspect.signature(tw.twistor_coframe).parameters
