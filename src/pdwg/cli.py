"""Command-line front end: run convergence studies, print verification
checks, or dump prox reference tables.

Output is deterministic for a fixed config and library version (the
wall_time column is the one exception; it reports measured seconds).
"""

import argparse
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .fe_space import Discretization, SpaceConfig, WeakFunction, project_Qh, project_Wh
from .mesh import build_uniform
from .analysis import builtin_case, check_study, run_study
from .prox import prox_phi_k1, prox_phi_oracle, prox_phi_weighted_l1, soft_threshold
from .solver import SolverConfig, assemble_S
from .stabilizer import assemble_B, eval_phi, eval_s
from .weak_assembly import assemble_A, weak_hessian_apply

__all__ = ["RunConfig", "parse_args", "run", "main"]


@dataclass
class RunConfig:
    command: str
    problem: str = "const"
    p: int = 2
    n_list: tuple = (4, 8, 16)
    solver: SolverConfig = field(default_factory=SolverConfig)
    space: SpaceConfig = field(default_factory=SpaceConfig)
    out: str = None
    format: str = "csv"


class UsageError(Exception):
    pass


def _parse_n_list(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--n expects a comma-separated integer list, got {text!r}")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="pdwg",
        description="Weak Galerkin solvers for elliptic equations in "
        "non-divergence form, with L^p stabilizer minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no defaults here: unset flags keep RunConfig's and the configs' own
    solve = sub.add_parser("solve", help="run a convergence study")
    solve.add_argument("--problem", choices=("const", "var", "disc"))
    solve.add_argument("--p", type=int)
    solve.add_argument("--k", type=int)
    solve.add_argument("--l", type=int)
    solve.add_argument("--n", dest="n_list", type=_parse_n_list)
    solve.add_argument("--alpha", type=float)
    solve.add_argument("--residual-tol", type=float)
    solve.add_argument("--max-iters", type=int)
    solve.add_argument("--out")
    solve.add_argument("--format", choices=("csv", "md"))

    sub.add_parser("verify", help="run structural invariant checks")

    table = sub.add_parser("prox-table", help="dump k=1 prox reference values")
    table.add_argument("--out", default=None)

    ns = parser.parse_args(argv)
    if ns.command != "solve":
        return RunConfig(command=ns.command, out=getattr(ns, "out", None))

    try:
        solver = _given(SolverConfig, ns, "alpha", "residual_tol", "max_iters")
        space = _given(SpaceConfig, ns, "k", "l")
        run_flags = ("command", "problem", "p", "n_list", "out", "format")
        cfg = _given(RunConfig, ns, *run_flags, solver=solver, space=space)
        check_study(cfg.problem, cfg.p, cfg.n_list)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


def _given(config, ns, *names, **fixed):
    """Build config from the flags in names that were set, plus fixed;
    the rest keep config's own defaults."""
    given = {name: getattr(ns, name) for name in names}
    given = {name: value for name, value in given.items() if value is not None}
    return config(**given, **fixed)


# ---------------------------------------------------------------------------
# output formatting

_COLUMNS = (
    "n",
    "h",
    "e_L",
    "rate_L",
    "e_W1",
    "rate_W1",
    "e_W2",
    "rate_W2",
    "iters",
    "r1",
    "r2",
    "r3",
    "wall_time",
)


def _sci(x):
    return f"{x:.5e}"


def _config_echo(cfg):
    solver, space = cfg.solver, cfg.space
    lines = [f"# pdwg {__version__}"]
    lines.append(
        f"# problem={cfg.problem} p={cfg.p} k={space.k} l={space.l} "
        f"n={','.join(str(n) for n in cfg.n_list)}"
    )
    lines.append(
        f"# alpha={solver.alpha:g} "
        f"residual_tol={solver.residual_tol:g} max_iters={solver.max_iters} "
        f"prox={solver.prox_method}"
    )
    return lines


def _study_rows(table):
    rates = table.rate_columns()
    rows = []
    for i, rep in enumerate(table.reports):
        cells = {
            "n": str(rep.n),
            "h": _sci(rep.h),
            "e_L": _sci(rep.e_L),
            "e_W1": _sci(rep.e_W1),
            "e_W2": _sci(rep.e_W2),
            "iters": str(rep.iterations),
            "wall_time": _sci(rep.wall_time),
        }
        for label, r in zip(("r1", "r2", "r3"), (*rep.residuals, 0.0, 0.0)[:3]):
            cells[label] = _sci(r)
        for name, col in (("rate_L", "e_L"), ("rate_W1", "e_W1"), ("rate_W2", "e_W2")):
            cells[name] = _sci(rates[col][i - 1]) if i else ""
        rows.append(cells)
    return rows


def _render_csv(echo, rows):
    lines = list(echo)
    lines.append(",".join(_COLUMNS))
    for cells in rows:
        lines.append(",".join(cells[c] for c in _COLUMNS))
    return "\n".join(lines) + "\n"


def _render_md(echo, rows):
    lines = list(echo)
    lines.append("| " + " | ".join(_COLUMNS) + " |")
    lines.append("|" + "|".join("---" for _ in _COLUMNS) + "|")
    for cells in rows:
        lines.append("| " + " | ".join(cells[c] or "--" for c in _COLUMNS) + " |")
    return "\n".join(lines) + "\n"


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"pdwg: cannot write {out}: {exc}", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _run_solve(cfg):
    case = builtin_case(cfg.problem)
    table = run_study(
        case, cfg.p, list(cfg.n_list), k=cfg.space.k, l=cfg.space.l, cfg=cfg.solver
    )
    rows = _study_rows(table)
    render = _render_md if cfg.format == "md" else _render_csv
    code = _emit(render(_config_echo(cfg), rows), cfg.out)
    if code:
        return code
    if any(not rep.converged for rep in table.reports):
        return 3
    return 0


def _check(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if (detail and not ok) else ""
    print(f"{tag} {name}{suffix}")
    return bool(ok)


def _run_verify(_cfg):
    ok = True
    rng = np.random.default_rng(0)

    # weak Hessian commutes with projections on a smooth function
    u = lambda p: p[..., 0] ** 3 + p[..., 0] * p[..., 1] ** 2
    grad = lambda p: np.stack(
        [3 * p[..., 0] ** 2 + p[..., 1] ** 2, 2 * p[..., 0] * p[..., 1]], axis=-1
    )
    hess = {
        (0, 0): lambda p: 6 * p[..., 0],
        (0, 1): lambda p: 2 * p[..., 1],
        (1, 0): lambda p: 2 * p[..., 1],
        (1, 1): lambda p: 2 * p[..., 0],
    }
    disc = Discretization(build_uniform(2), SpaceConfig(k=2))
    qh = project_Qh(u, grad, disc)
    worst = 0.0
    for (i, j), dij in hess.items():
        got = weak_hessian_apply(disc, qh, i, j)
        want = project_Wh(dij, disc)
        worst = max(worst, np.abs(got - want).max())
    ok &= _check("weak-hessian-commutativity", worst <= 1e-9, f"gap {worst:.2e}")

    # phi(Bv) equals the p=1 stabilizer
    worst = 0.0
    for n in (1, 2):
        disc = Discretization(build_uniform(n), SpaceConfig(k=2))
        bmat = assemble_B(disc, 1)
        for _ in range(20):
            v = rng.normal(size=disc.layout.N)
            phi = eval_phi(bmat.B @ v, disc.cfg.k)
            s = eval_s(disc, WeakFunction(disc.layout, v), 1)
            worst = max(worst, abs(phi - s) / max(1.0, abs(s)))
    ok &= _check("phi-equals-stabilizer-p1", worst <= 1e-9, f"rel gap {worst:.2e}")

    # constraint matrix has full row rank
    for n in (1, 2):
        disc = Discretization(build_uniform(n), SpaceConfig(k=2))
        system = assemble_A(disc, builtin_case("const").field)
        sv = np.linalg.svd(system.A.toarray(), compute_uv=False)
        ok &= _check(
            f"A-full-row-rank-n{n}",
            sv.min() > 1e-10 * sv.max(),
            f"sigma_min/sigma_max {sv.min() / sv.max():.2e}",
        )

    # the iteration matrix factorizes for a range of alpha
    disc = Discretization(build_uniform(1), SpaceConfig(k=2))
    system = assemble_A(disc, builtin_case("const").field)
    bmat = assemble_B(disc, 1)
    bad = []
    for alpha in (0.5, 1.0, 2.0):
        try:
            smat = assemble_S(system.A, bmat.B, alpha)
            piv = np.abs(smat.lu.U.diagonal())
            if piv.min() <= 1e-12 * (1.0 + piv.max()):
                bad.append(alpha)
        except RuntimeError:
            bad.append(alpha)
    ok &= _check("S-factorization-grid", not bad, f"failures {bad}")

    # firm nonexpansiveness of every prox operator; the numerical
    # oracle satisfies the inequality only up to its own accuracy
    def firm(op, m, samples):
        worst = -np.inf
        for _ in range(samples):
            x = 3.0 * rng.normal(size=m)
            z = 3.0 * rng.normal(size=m)
            px, pz = op(x), op(z)
            worst = max(worst, np.sum((px - pz) ** 2) - np.dot(x - z, px - pz))
        return worst

    proxes = [
        ("soft-threshold", lambda q: soft_threshold(q, 0.7), 1, 40, 1e-10),
        ("prox-k1", lambda q: prox_phi_k1(q, 1.3), 2, 40, 1e-10),
        ("prox-wl1-k2", lambda q: prox_phi_weighted_l1(q, 1.0, 2), 3, 40, 1e-10),
        ("prox-oracle-k1", lambda q: prox_phi_oracle(q, 1.0, 1), 2, 5, 1e-6),
    ]
    for name, op, m, samples, margin in proxes:
        gap = firm(op, m, samples)
        ok &= _check(f"firmly-nonexpansive-{name}", gap <= margin, f"gap {gap:.2e}")

    return 0 if ok else 1


def _run_prox_table(cfg):
    rng = np.random.default_rng(0)
    lines = [f"# pdwg {__version__}", "# table=prox k=1 seed=0"]
    lines.append("alpha,v0,v1,p0,p1")
    for alpha in (0.5, 1.0, 2.0):
        for _ in range(8):
            v = 2.0 * rng.normal(size=2)
            p = prox_phi_k1(v, alpha)
            lines.append(
                ",".join([f"{alpha:g}", _sci(v[0]), _sci(v[1]), _sci(p[0]), _sci(p[1])])
            )
    return _emit("\n".join(lines) + "\n", cfg.out)


def run(cfg):
    if cfg.command == "solve":
        return _run_solve(cfg)
    if cfg.command == "verify":
        return _run_verify(cfg)
    if cfg.command == "prox-table":
        return _run_prox_table(cfg)
    raise UsageError(f"unknown command {cfg.command!r}")


def main(argv=None):
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"pdwg: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
