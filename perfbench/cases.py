"""Workload definitions: every instance, start point and CLI config comes from the seed.

Within a workload the instance *mix* is fixed (which families, sizes and
instance seeds); the workload seed draws a block-orthogonal change of
coordinates for each instance (x -> P x, y -> Q y, with P and Q Haar-random).
Such a change leaves the conditioning of every instance, and so the number of
iterations to a certificate, unchanged, while every number the program sees
is different. Seed-to-seed spread then measures the machine, not the luck of
the instance draw. Rosenbrock has scalar blocks and no such symmetry; its
starts are drawn from an interval on which the iteration count barely moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from bcdcert.problem import BlockPoint
from bcdcert.problems import ProblemSpec, make_problem, random_start
from bcdcert.solver import SolverConfig

WORKLOADS = ("solve_small", "solve_mf", "cli_audit")

STRATEGIES = ("fixed_step", "exact_min", "backtracking")


@dataclass
class SolveCase:
    """One in-process solve() call and what its independent check needs."""

    label: str
    family: str
    obj: object
    start: BlockPoint
    cfg: SolverConfig
    expect_stop: tuple = ("grad_tol_met",)
    truth: dict = field(default_factory=dict)


@dataclass
class CliLeg:
    """The three CLI invocations of one round: run, report on its trace, check.

    ``replay`` is the run config rebuilt through the public library API; its
    in-process history must equal the trace the CLI writes, bit for bit.
    """

    run_ini: str
    check_ini: str
    check_points: int
    replay: SolveCase


@dataclass
class Workload:
    name: str
    seed: int
    solves: list
    timed_solves: bool
    leg: CliLeg


def _haar(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _sym(m):
    return 0.5 * (m + m.T)


def _coupled(rng, inst, n_x, n_y):
    canon = make_problem(ProblemSpec("coupled_quadratic", seed=inst, params={"n_x": n_x, "n_y": n_y}))
    s0 = random_start(canon, inst)
    P, Q = _haar(rng, n_x), _haar(rng, n_y)
    params = {
        "A": _sym(P @ canon.A @ P.T),
        "B": P @ canon.B @ Q.T,
        "C": _sym(Q @ canon.C @ Q.T),
        "a": P @ canon.a,
        "c": Q @ canon.c,
    }
    obj = make_problem(ProblemSpec("coupled_quadratic", params=params))
    return obj, BlockPoint(P @ s0.x, Q @ s0.y)


def _tight(rng, inst, n):
    own = np.random.default_rng([inst, 7])
    P = _haar(rng, n)
    params = {
        "l": float(own.uniform(1.0, 8.0)),
        "anchor": P @ own.standard_normal(n),
        "g": P @ own.standard_normal(n),
        "c": float(own.standard_normal()),
    }
    obj = make_problem(ProblemSpec("tight_quadratic", params=params))
    return obj, BlockPoint(P @ own.standard_normal(n), [])


def _mf_target(rng, inst, m, n, r):
    """Target with a fixed spectrum (gap between ranks r and r+1) in random bases."""
    own = np.random.default_rng([inst, m, n, r])
    k = min(m, n)
    spectrum = np.concatenate([np.linspace(3.0, 1.5, r), np.linspace(0.3, 0.05, k - r)])
    P, Q = _haar(rng, m), _haar(rng, n)
    U, V = _haar(own, m)[:, :k], _haar(own, n)[:, :k]
    target = P @ ((U * spectrum) @ V.T) @ Q.T
    X0 = P @ own.standard_normal((m, r))
    Y0 = own.standard_normal((r, n)) @ Q.T
    return target, BlockPoint(X0.ravel(), Y0.ravel())


def _ini(problem: dict, solver: dict) -> str:
    lines = ["[problem]"] + [f"{k} = {v}" for k, v in problem.items()]
    lines += ["", "[solver]"] + [f"{k} = {v}" for k, v in solver.items()]
    return "\n".join(lines) + "\n"


def _leg(run_problem, run_solver, start, check_problem, check_points, expect_stop):
    """CLI leg from structured configs; the replay uses the same values."""
    family = run_problem["family"]
    params = {k: v for k, v in run_problem.items() if k not in ("family", "seed")}
    obj = make_problem(ProblemSpec(family, seed=run_problem.get("seed", 0), params=params))
    solver = dict(run_solver)
    cfg = SolverConfig(
        x_strategy=solver["x_strategy"],
        grad_tol=solver["grad_tol"],
        max_iters=solver["max_iters"],
        seed=solver.get("seed", 0),
    )
    if start is None:
        start = random_start(obj, cfg.seed)
    else:
        solver["start_x"] = ", ".join(repr(float(v)) for v in start.x)
        solver["start_y"] = ", ".join(repr(float(v)) for v in start.y)
    solver = {k: (repr(v) if isinstance(v, float) else v) for k, v in solver.items()}
    replay = SolveCase(f"cli-replay/{family}/{cfg.x_strategy}", family, obj, start, cfg, expect_stop)
    return CliLeg(_ini(run_problem, solver), _ini(check_problem, {}), check_points, replay)


def _solve_small(rng, tiny):
    n_small, n_large, n_tight, n_rosen = (1, 1, 1, 1) if tiny else (32, 12, 4, 4)
    solves = []
    for n_x, n_y, count in ((4, 3, n_small), (40, 30, n_large)):
        for inst in range(1, count + 1):
            obj, start = _coupled(rng, inst, n_x, n_y)
            for strat in STRATEGIES:
                cfg = SolverConfig(x_strategy=strat, grad_tol=1e-9, max_iters=5000)
                solves.append(SolveCase(f"coupled_quadratic/{n_x}x{n_y}/i{inst}/{strat}",
                                        "coupled_quadratic", obj, start, cfg))
    for inst in range(1, n_tight + 1):
        obj, start = _tight(rng, inst, 5)
        for strat in STRATEGIES:
            cfg = SolverConfig(x_strategy=strat, grad_tol=1e-9, max_iters=5000)
            solves.append(SolveCase(f"tight_quadratic/5/i{inst}/{strat}", "tight_quadratic", obj, start, cfg))
    rosen = make_problem(ProblemSpec("two_block_rosenbrock", params={"scale": 2.0}))
    for inst in range(1, n_rosen + 1):
        start = BlockPoint([rng.uniform(-1.0, 0.5)], [rng.uniform(-1.0, 1.0)])
        cfg = SolverConfig(x_strategy="backtracking", grad_tol=1e-8, max_iters=5000)
        solves.append(SolveCase(f"two_block_rosenbrock/s2/i{inst}/backtracking",
                                "two_block_rosenbrock", rosen, start, cfg))
    pseed = int(rng.integers(1, 2**31))
    leg = _leg(
        {"family": "coupled_quadratic", "n_x": 40, "n_y": 30, "seed": pseed},
        {"x_strategy": "fixed_step", "grad_tol": 1e-9, "max_iters": 5000, "seed": pseed},
        None,
        {"family": "coupled_quadratic", "n_x": 40, "n_y": 30, "seed": pseed},
        4 if tiny else 8,
        ("grad_tol_met",),
    )
    return solves, leg


def _solve_mf(rng, tiny):
    shapes = ((30, 20, 5, 1 if tiny else 2), (60, 40, 8, 1 if tiny else 2))
    solves = []
    for m, n, r, count in shapes:
        for inst in range(1, count + 1):
            target, start = _mf_target(rng, inst, m, n, r)
            obj = make_problem(ProblemSpec("matrix_factorization", params={"target": target, "r": r}))
            sv = np.linalg.svd(target, compute_uv=False)
            truth = {"floor": 0.5 * float(np.sum(sv[r:] ** 2))}
            for strat in STRATEGIES:
                cfg = SolverConfig(x_strategy=strat, grad_tol=1e-8, max_iters=5000)
                solves.append(SolveCase(f"matrix_factorization/{m}x{n}r{r}/i{inst}/{strat}",
                                        "matrix_factorization", obj, start, cfg, truth=truth))
    pseed = int(rng.integers(1, 2**31))
    leg = _leg(
        {"family": "matrix_factorization", "m": 30, "n": 20, "r": 5, "seed": pseed},
        {"x_strategy": "backtracking", "grad_tol": 1e-14, "max_iters": 60 if tiny else 300, "seed": pseed},
        None,
        {"family": "matrix_factorization", "m": 30, "n": 20, "r": 5, "seed": pseed},
        4 if tiny else 8,
        ("grad_tol_met", "max_iters"),
    )
    return solves, leg


def _cli_audit(rng, tiny):
    start = BlockPoint([rng.uniform(-1.5, -1.25)], [rng.uniform(-1.0, 1.0)])
    pseed = int(rng.integers(1, 2**31))
    leg = _leg(
        {"family": "two_block_rosenbrock", "scale": 100.0},
        {"x_strategy": "backtracking", "grad_tol": 1e-12, "max_iters": 500 if tiny else 20000},
        start,
        {"family": "matrix_factorization", "m": 60, "n": 40, "r": 8, "seed": pseed},
        2 if tiny else 8,
        ("max_iters",),
    )
    return [leg.replay], leg


_BUILDERS = {"solve_small": _solve_small, "solve_mf": _solve_mf, "cli_audit": _cli_audit}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Every instance, start point and config of one workload, from its seed alone."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    solves, leg = _BUILDERS[name](rng, tiny)
    return Workload(name, seed, solves, name != "cli_audit", leg)

