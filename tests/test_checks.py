"""One rule for scalar arguments, at every entry point that takes one.

Integer fields take Python or numpy integers, real fields Python or
numpy reals strictly between 0 and inf with a finite reciprocal, and
the exponent of an error norm inf or a real number of at least 1; bools
of either kind, strings, NaN and inf are refused with a ValueError that
names the field. An id out of range raises an IndexError naming the
field, an array of the wrong shape (problem data included: a constant
coefficient or load is not broadcast) a ValueError naming the field
and both shapes, a coefficient block that is not 1-D with at least one
value and a jump vector that is not a whole number of blocks a
ValueError. These rules live in pdwg._checks alone, so the copies
cannot drift apart; likewise the assembly of operators over the column
space lives in DofLayout.assemble alone, and the p=1 problem, always
lifted by its boundary data (g = 0 when none is given), in
solver.assemble_S.
"""

import dataclasses
import re
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import pdwg
from pdwg.analysis import builtin_case, check_study, error_lp, error_w1p, error_w2ph, rates
from pdwg.fe_space import (
    Discretization,
    SpaceConfig,
    WeakFunction,
    edge_rule,
    eval_v0,
    poly_exponents,
    triangle_rule,
)
from pdwg.mesh import build_uniform, edge_param
from pdwg.prox import (
    project_omega0,
    prox_indicator,
    prox_phi_k1,
    prox_phi_oracle,
    prox_phi_weighted_l1,
    soft_threshold,
)
from pdwg.solver import SolverConfig, _check_v0_blocks, assemble_S, solve_p1
from pdwg.stabilizer import assemble_B, block_slice, eval_phi, eval_s, integral_abs_poly
from pdwg.weak_assembly import assemble_A, check_ellipticity, gather_local, local_dof_columns

# 1/5e-324 overflows, and the p=1 scheme uses 1/alpha; a float32 zero
# is refused too, though the float64 bound on 1/value rounds to 0 there
REAL = (True, np.True_, np.nan, np.inf, "2", 5e-324, np.float32(0.0))
INTEGER = REAL + (2.5,)
DEGREE = INTEGER + (-1,)
# p = inf is the sup norm, not a hole
EXPONENT = tuple(v for v in REAL if v is not np.inf) + (0, -1, 0.5)


@cache
def _p1():
    disc = Discretization(build_uniform(1), SpaceConfig(k=2))
    system = assemble_A(disc, builtin_case("const").field)
    zero = WeakFunction(disc.layout, np.zeros(disc.layout.N))
    return disc, system, assemble_B(disc, 1), zero


def _field(**data):
    # the const case with the coefficient a or the load f replaced
    return dataclasses.replace(builtin_case("const").field, **data)


def _assemble_S(alpha):
    # alpha reaches assemble_S only through the checked, frozen config
    _, system, bmat, _ = _p1()
    return assemble_S(system, bmat, SolverConfig(alpha=alpha))


def _error(norm):
    # the error of the zero weak function, measured in norm with exponent p
    return lambda p: norm(_p1()[0], _p1()[3], builtin_case("const"), p)


def _solve_p1(k):
    _, system, bmat, _ = _p1()
    return solve_p1(system, bmat, k, SolverConfig(max_iters=3))


# entry point: (field, refused values, call with the value, accepted numpy value)
ENTRIES = {
    "build_uniform": ("n", INTEGER, build_uniform, np.int64(1)),
    "SpaceConfig.k": ("k", DEGREE, lambda v: SpaceConfig(k=v), np.int64(3)),
    "SpaceConfig.l": ("l", INTEGER, lambda v: SpaceConfig(k=3, l=v), np.int64(1)),
    "check_study.p": ("p", INTEGER, lambda v: check_study("const", v, [2]), np.int64(2)),
    "check_study.n": ("n", INTEGER, lambda v: check_study("const", 2, [v]), np.int64(2)),
    "SolverConfig.alpha": ("alpha", REAL, lambda v: SolverConfig(alpha=v), np.float32(2)),
    "SolverConfig.residual_tol": (
        "residual_tol", REAL, lambda v: SolverConfig(residual_tol=v), np.float32(1e-6)
    ),
    "SolverConfig.max_iters": (
        "max_iters", INTEGER, lambda v: SolverConfig(max_iters=v), np.int64(5)
    ),
    "assemble_S": ("alpha", REAL, _assemble_S, np.float32(2)),
    "solve_p1.k": ("k", DEGREE, _solve_p1, np.int64(2)),
    "v0_blocks": ("v0_blocks", INTEGER, lambda v: _check_v0_blocks((v, 1), 3), np.int64(1)),
    "soft_threshold": (
        "threshold", REAL, lambda v: soft_threshold(np.ones(3), v), np.float32(0.5)
    ),
    "prox_phi_k1": ("alpha", REAL, lambda v: prox_phi_k1(np.ones(2), v), np.float32(2)),
    "prox_phi_weighted_l1.alpha": (
        "alpha", REAL, lambda v: prox_phi_weighted_l1(np.ones(3), v, 2), np.float32(2)
    ),
    "prox_phi_weighted_l1.k": (
        "k", DEGREE, lambda v: prox_phi_weighted_l1(np.ones(3), 1.0, v), np.int64(2)
    ),
    "prox_phi_oracle.alpha": (
        "alpha", REAL, lambda v: prox_phi_oracle(np.zeros(2), v, 1), np.float32(2)
    ),
    "prox_phi_oracle.k": (
        "k", DEGREE, lambda v: prox_phi_oracle(np.zeros(2), 1.0, v), np.int64(1)
    ),
    "project_omega0": ("c", REAL, lambda v: project_omega0(np.ones(2), v), np.float32(1)),
    "assemble_B": ("p", INTEGER, lambda v: assemble_B(_p1()[0], v), np.int64(1)),
    # p = inf is the sup form of the stabilizer, not a hole
    "eval_s": (
        "p",
        tuple(v for v in INTEGER if v is not np.inf),
        lambda v: eval_s(_p1()[0], _p1()[3], v),
        np.int64(2),
    ),
    "eval_phi": ("k", DEGREE, lambda v: eval_phi(np.ones(3), v), np.int64(2)),
    "eval_v0": ("element", INTEGER, lambda v: eval_v0(_p1()[3], v, np.zeros(2)), np.int64(0)),
    "edge_rule": ("npoints", DEGREE + (0,), edge_rule, np.int64(2)),
    "triangle_rule": ("degree", DEGREE, triangle_rule, np.int64(0)),
    "poly_exponents": ("degree", DEGREE, poly_exponents, np.int64(0)),
    "rates": ("n", DEGREE + (0,), lambda v: rates([1e-2, 1e-3], [v, 3]), np.int64(2)),
    "error_lp": ("p", EXPONENT, _error(error_lp), np.float32(1.5)),
    "error_w1p": ("p", EXPONENT, _error(error_w1p), np.int64(2)),
    # eval_s then takes p in {1, 2, inf} alone
    "error_w2ph": ("p", EXPONENT, _error(error_w2ph), np.int64(2)),
}
REFUSALS = [(entry, value) for entry, spec in ENTRIES.items() for value in spec[1]]


@pytest.mark.parametrize(
    "entry, value", REFUSALS, ids=[f"{entry}-{value!r}" for entry, value in REFUSALS]
)
def test_scalar_argument_refused_naming_the_field(entry, value):
    field, _, call, _ = ENTRIES[entry]
    with pytest.raises(ValueError, match=re.escape(f"{field}=")):
        call(value)


@pytest.mark.parametrize("entry", ENTRIES)
def test_numpy_scalars_accepted(entry):
    _, _, call, good = ENTRIES[entry]
    call(good)


SHAPES = {
    "WeakFunction.coeffs": (
        lambda: WeakFunction(_p1()[3].layout, np.zeros(2)),
        r"coeffs must have shape \(\d+,\), got shape \(2,\)",
    ),
    "WeakFunction.boundary": (
        lambda: WeakFunction(_p1()[3].layout, _p1()[3].coeffs, boundary=np.zeros(1)),
        r"boundary must have shape \(\d+,\), got shape \(1,\)",
    ),
    "prox_phi_k1": (
        lambda: prox_phi_k1(np.ones(3), 1.0), "length 3 is not a multiple of block size 2"
    ),
    "prox_phi_oracle": (
        lambda: prox_phi_oracle(np.zeros(3), 1.0, 1),
        r"v must have shape \(2,\), got shape \(3,\)",
    ),
    "prox_indicator": (
        lambda: prox_indicator(np.zeros(4), np.ones(3)),
        r"x must have shape \(3,\), got shape \(4,\)",
    ),
    # a reshape to (-1, 2) would pair coordinates of different points
    "project_omega0.rows": (
        lambda: project_omega0(np.ones((2, 3)), 1.0),
        r"point must have shape \(2, 2\), got shape \(2, 3\)",
    ),
    "project_omega0.odd": (
        lambda: project_omega0(np.ones(3), 1.0),
        r"point must have shape \(2,\), got shape \(3,\)",
    ),
    # problem data gives one value per point; a constant is not broadcast
    "check_ellipticity.a": (
        lambda: check_ellipticity(_field(a=lambda p: np.eye(2)), _p1()[0].quad_pts),
        r"a must have shape \(\d+, \d+, 2, 2\), got shape \(2, 2\)",
    ),
    "assemble_A.a": (
        lambda: assemble_A(_p1()[0], _field(a=lambda p: np.eye(2))),
        r"a must have shape \(\d+, \d+, 2, 2\), got shape \(2, 2\)",
    ),
    "error_w2ph.a": (
        lambda: error_w2ph(
            _p1()[0],
            _p1()[3],
            dataclasses.replace(builtin_case("const"), field=_field(a=lambda p: np.eye(2))),
            2,
        ),
        r"a must have shape \(\d+, \d+, 2, 2\), got shape \(2, 2\)",
    ),
    "assemble_A.f": (
        lambda: assemble_A(_p1()[0], _field(f=lambda p: 14.0)),
        r"f must have shape \(\d+, \d+\), got shape \(\)",
    ),
    "integral_abs_poly.empty": (
        lambda: integral_abs_poly(()),
        r"coeffs must be 1-D with at least one value, got shape \(0,\)",
    ),
    "integral_abs_poly.rows": (
        lambda: integral_abs_poly([[1.0, 2.0]]),
        r"coeffs must be 1-D with at least one value, got shape \(1, 2\)",
    ),
}


@pytest.mark.parametrize("entry", SHAPES)
def test_array_of_the_wrong_shape_refused(entry):
    call, message = SHAPES[entry]
    with pytest.raises(ValueError, match=message):
        call()


@cache
def _ids():
    disc, _, bmat, zero = _p1()
    layout, mesh = disc.layout, disc.mesh
    T, E = mesh.num_elements, mesh.num_edges
    # entry point: (field, size, call with the id)
    return {
        "edge_param": ("edge_id", E, lambda i: edge_param(mesh, i)),
        "v0_slice": ("t", T, layout.v0_slice),
        "vb_slice": ("e", E, layout.vb_slice),
        "vg_slice.e": ("e", E, lambda i: layout.vg_slice(i, 0)),
        "vg_slice.j": ("j", 2, lambda i: layout.vg_slice(0, i)),
        "boundary_vb_slice": ("e", E, layout.boundary_vb_slice),
        "local_dof_columns": ("t", T, lambda i: local_dof_columns(disc, i)),
        "gather_local": ("t", T, lambda i: gather_local(disc, i, zero)),
        "block_slice.kind": ("kind", 3, lambda i: block_slice(bmat, i, 0)),
        "block_slice.pair": ("pair", bmat.num_pairs, lambda i: block_slice(bmat, 0, i)),
        "eval_v0": ("element", T, lambda i: eval_v0(zero, i, np.zeros(2))),
    }


IDS = [(entry, end) for entry in _ids() for end in ("-1", "size")]


@pytest.mark.parametrize("entry, end", IDS, ids=[f"{e}-{end}" for e, end in IDS])
def test_id_out_of_range_refused_naming_the_field(entry, end):
    # -1 would wrap round to the last entry and size run past the end
    field, size, call = _ids()[entry]
    with pytest.raises(IndexError, match=re.escape(f"{field}=")):
        call(-1 if end == "-1" else size)


def test_scalar_rule_has_one_owner():
    # only _checks.py may spell out the rule: the numbers ABCs and the
    # bool exclusion are the parts that drifted between hand-made copies
    owners = []
    for path in sorted(Path(pdwg.__file__).parent.glob("*.py")):
        text = path.read_text()
        imports_numbers = re.search(r"^\s*(from numbers import|import numbers\b)", text, re.M)
        if imports_numbers or re.search(r"isinstance\([^)]*\bbool", text):
            owners.append(path.name)
    assert owners == ["_checks.py"]


# a column slice of an operator at N: [:, :N], [:, : layout.N], [:, self.N :]
_SPLIT_AT_N = re.compile(r"\[:,\s*(:\s*[\w.]*\bN\b|[\w.]*\bN\b\s*:)\s*\]")


def test_column_space_has_one_builder():
    assert _SPLIT_AT_N.search("full[:, : layout.N]") and _SPLIT_AT_N.search("x[:, self.N :]")
    assert not _SPLIT_AT_N.search("out[: layout.N]") and not _SPLIT_AT_N.search("c[:, :nv0]")
    # only fe_space.py (DofLayout.assemble) may build a COO matrix or split
    # an operator at N, so A/Cb and B/Bb cannot come out in two formats
    others = []
    for path in sorted(Path(pdwg.__file__).parent.glob("*.py")):
        text = path.read_text()
        if path.name != "fe_space.py" and ("coo_matrix" in text or _SPLIT_AT_N.search(text)):
            others.append(path.name)
    assert others == []


# the jump offset c = Bb g of boundary data g
_LIFTING = re.compile(r"\.Bb\s*@")


# a branch on a missing jump offset: c is None, c is not None
_NO_OFFSET = re.compile(r"\bc is (not )?None\b")


def test_p1_problem_has_one_builder():
    assert _LIFTING.search("c = bmat.Bb @ g") and not _LIFTING.search("full = B @ v")
    assert _NO_OFFSET.search("if c is not None:") and not _NO_OFFSET.search("if g is None:")
    # only solver.py (assemble_S) may build the prox or lift boundary
    # data into the jumps, so no caller can pair a prox or an offset with
    # a factorization of another problem
    others = []
    for path in sorted(Path(pdwg.__file__).parent.glob("*.py")):
        text = path.read_text()
        if path.name != "solver.py" and ("make_prox(" in text or _LIFTING.search(text)):
            others.append(path.name)
    assert others == []
    # assemble_S lifts g = 0 when no boundary data is given, so every p=1
    # run takes the one lifted path and nothing branches on the offset
    assert not _NO_OFFSET.search((Path(pdwg.__file__).parent / "solver.py").read_text())


# a hand-made shape comparison: x.shape != (n,), np.shape(g) != (NB,)
_SHAPE_TEST = re.compile(r"\.shape\s*!=|np\.shape\([^)]*\)\s*!=")


def test_input_rules_have_one_owner():
    assert _SHAPE_TEST.search("if v.shape != (bs,):") and _SHAPE_TEST.search("np.shape(g) != s")
    assert not _SHAPE_TEST.search("np.shape(c0) + (k,)") and not _SHAPE_TEST.search("a.shape")
    # only _checks.py may spell out the block-length, the id, the shape or
    # the reciprocal rule
    others = []
    for path in sorted(Path(pdwg.__file__).parent.glob("*.py")):
        text = path.read_text()
        if path.name != "_checks.py" and (
            "is not a multiple of block size" in text
            or "raise IndexError" in text
            or _SHAPE_TEST.search(text)
            or "1/alpha must be finite" in text
        ):
            others.append(path.name)
    assert others == []


# a call of numpy's per-polynomial root finders, or an eigenvalue solve
_ROOT_FINDER = re.compile(r"\bnp\.(roots|polyval|polyder)\b|\.eigvals\(")


def test_one_real_root_finder():
    assert _ROOT_FINDER.search("r = np.roots(p)") and _ROOT_FINDER.search("np.linalg.eigvals(m)")
    assert not _ROOT_FINDER.search("x = _real_roots(c)") and not _ROOT_FINDER.search("eigvalsh")
    # stabilizer._real_roots is the one root finder: the |poly| integral,
    # the exact sup of eval_s and the k=1 projection all batch through it
    owners = []
    for path in sorted(Path(pdwg.__file__).parent.glob("*.py")):
        if _ROOT_FINDER.search(path.read_text()):
            owners.append(path.name)
    assert owners == ["stabilizer.py"]
