"""End-to-end orchestration: build every stage, verify, write artifacts."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis as an
from .mra import (build_gram_system, component_positions,
                  neumann_inverse_and_sqrt, save_gram_system)
from .nets import (Levels, NetHierarchy, ReferenceOrder, build_nets,
                   build_reference_order, save_nets)
from .randomized import (CubeMachine, _check_nsamples, sample_omega,
                         save_system, theoretical_eta, verify_center_sandwich,
                         verify_system)
from .report import (check_error, check_flag, format_report, write_json,
                     write_report)
from .space import (FiniteSpace, SpaceConstants, compute_constants,
                    resolve_space, save_space)
from .splines import (build_transitions, compute_splines_exact,
                      compute_splines_mc, save_splines, verify_spline_table)
from .wavelets import (WaveletBasis, assemble_basis, kernel_of_projection,
                       save_basis)

__all__ = ["PipelineConfig", "Bundle", "PipelineResult", "build_bundle",
           "run_pipeline", "suite_rng", "SUITES"]

SUITES = ("nets", "cubes", "splines", "mra", "wavelets", "analysis")


def suite_rng(seed: int, suite: str) -> np.random.Generator:
    """One suite's stream, so no record depends on the other suites; no
    coordinate stream ``_coord_rng(seed, level, 0 | 1)`` has third word 2
    (SeedSequence drops trailing zeros, so ``default_rng(seed)`` is one)."""
    return np.random.default_rng([seed, SUITES.index(suite), 2])


@dataclass(frozen=True)
class PipelineConfig:
    space: str
    delta: float = 0.25
    mode: str = "relaxed"
    seed: int = 1
    nsamples: int = 100_000
    out: str | None = None
    suites: tuple = SUITES

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        _check_nsamples(self.nsamples)
        if not self.suites:
            raise ValueError(f"no suite named; the suites are {', '.join(SUITES)}")
        unknown = set(self.suites) - set(SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        repeated = [s for i, s in enumerate(self.suites) if s in self.suites[:i]]
        if repeated:
            raise ValueError(f"suite {repeated[0]!r} named more than once")


@dataclass
class Bundle:
    """Everything the pipeline builds, in dependency order."""

    space: FiniteSpace
    constants: SpaceConstants
    hierarchy: NetHierarchy
    order: ReferenceOrder
    machine: CubeMachine
    transitions: Levels
    splines: Levels
    gramsys: Levels
    basis: WaveletBasis
    eta: float


def build_bundle(space: FiniteSpace, delta: float, mode: str = "relaxed") -> Bundle:
    constants = compute_constants(space)
    hierarchy = build_nets(space, constants, delta, mode)
    order = build_reference_order(space, constants, hierarchy)
    machine = CubeMachine(space, constants, hierarchy, order)
    transitions = build_transitions(machine)
    splines = compute_splines_exact(hierarchy, transitions)
    gramsys = build_gram_system(space, constants, hierarchy, splines)
    basis = assemble_basis(space, constants, hierarchy, splines, gramsys)
    return Bundle(space=space, constants=constants, hierarchy=hierarchy,
                  order=order, machine=machine, transitions=transitions,
                  splines=splines, gramsys=gramsys, basis=basis,
                  eta=theoretical_eta(order, delta))


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _suite_nets(b: Bundle):
    return list(b.hierarchy.checks)


def _suite_cubes(b: Bundle, system):
    seed = system.omega.seed
    geometry = verify_system(b.space, b.constants, b.hierarchy, b.order, system)
    centre = verify_center_sandwich(b.space, b.constants, b.hierarchy, system)
    detail = f"seed {seed}: partition, tiling, sandwiches"
    failed = [f"{c.name} ({c.detail})" if c.detail else c.name
              for c in geometry if not c.passed]
    if failed:
        detail += "; failed: " + ", ".join(failed)
    return [
        check_flag("cube-geometry", detail, not failed),
        check_flag("cube-centre-sandwich", f"seed {seed}",
                   all(c.passed for c in centre)),
        *centre,
    ]


def _suite_splines(b: Bundle, seed: int, nsamples: int):
    checks = verify_spline_table(b.space, b.constants, b.hierarchy,
                                 b.transitions, b.splines)
    mc, _ = compute_splines_mc(b.machine, nsamples, seed)
    dev = max(float(np.abs(mc.at(k) - b.splines.at(k)).max())
              for k in range(b.hierarchy.k_coarse, b.hierarchy.k_fine + 1))
    tol = max(0.01, 5.0 * math.sqrt(0.25 / nsamples))
    checks.append(check_error("spline-sampling-agreement",
                              f"{nsamples} draws, max entry deviation {dev:.3g}",
                              dev, tol))
    return checks


def _suite_mra(b: Bundle, rng: np.random.Generator):
    checks = []
    h = b.hierarchy
    for k in range(h.k_coarse, h.k_fine + 1):
        lv = b.gramsys.at(k)
        n = lv.M.shape[0]
        # the residuals per connected component of M, by batched products;
        # between components M, M^-1 and M^-1/2 must be 0.0, and an entry
        # there counts by its size (one of M, from a split component, in
        # both residuals)
        positions = component_positions(lv.M)
        between = np.ones(n * n, dtype=bool)
        for flat in positions:
            between[flat] = False
        between = between.reshape(n, n)
        stray = [np.max(np.abs(m), where=between, initial=0.0)
                 for m in (lv.M, lv.Minv, lv.Misqrt)]
        err_inv, err_sqrt = [stray[0], stray[1]], [stray[0], stray[2]]
        for flat in positions:
            M, Minv, Misqrt = (m.take(flat) for m in (lv.M, lv.Minv, lv.Misqrt))
            eye = np.eye(flat.shape[1])
            err_inv.append(np.abs(Minv @ M - eye).max())
            err_sqrt.append(np.abs(Misqrt @ Misqrt @ M - eye).max())
        # np.max, not max: a NaN residual must fail the check
        err_inv, err_sqrt = float(np.max(err_inv)), float(np.max(err_sqrt))
        checks.append(check_error(f"gram-inverse level {k}", "residual of M^-1 M",
                                  err_inv, 1e-10))
        checks.append(check_error(f"gram-inverse-sqrt level {k}",
                                  "residual of (M^-1/2)^2 M", err_sqrt, 1e-10))
        ninv, nsqrt, r, terms = neumann_inverse_and_sqrt(lv.M)
        agree = max(float(np.abs(ninv - lv.Minv).max()),
                    float(np.abs(nsqrt - lv.Misqrt).max()))
        checks.append(check_error(
            f"series-vs-eigen level {k}",
            f"ratio {r:.3g}, {terms} terms", agree, 1e-10))
        lo, hi = lv.riesz
        worst = 0.0
        lams = rng.normal(size=(100, n))
        for lam, f in zip(lams, lams @ b.splines.at(k)):
            lhs = b.space.inner(f, f)
            mass = float((lam**2 * lv.volumes).sum())
            worst = max(worst,
                        (lo * mass - lhs) / max(lhs, 1e-30),
                        (lhs - hi * mass) / max(lhs, 1e-30))
        checks.append(check_error(f"riesz-bounds level {k}",
                                  f"[{lo:.4g}, {hi:.4g}] on 100 random vectors",
                                  worst, 1e-10))
    return checks


def _suite_wavelets(b: Bundle, rng: np.random.Generator):
    basis = b.basis
    n = b.space.n
    ortho, count = basis.checks
    means = basis.wavelet_values @ b.space.weights
    checks = [ortho,
              check_error("wavelet-vanishing-means", "max |integral|",
                          float(np.abs(means).max()) if means.size else 0.0,
                          1e-10),
              count]
    F = rng.normal(size=(100, n))
    Fw = F * b.space.weights
    # stacked matrix-vector products: per function the gemv of
    # ``basis.analyze`` and the dot of ``space.inner``, so the same sums
    energy = ((basis.values @ Fw[:, :, None])[:, :, 0] ** 2).sum(axis=1)
    norms = (Fw[:, None, :] @ F[:, :, None])[:, 0, 0]
    worst = float((np.abs(energy - norms) / np.maximum(norms, 1e-30)).max())
    checks.append(check_error("parseval", "100 random functions, relative",
                              worst, 1e-8))
    h = b.hierarchy
    tele = 0.0
    P_k = kernel_of_projection(b.space, b.gramsys, basis, h.k_coarse, "P")
    for k in range(h.k_coarse, h.k_fine):
        Q_k = kernel_of_projection(b.space, b.gramsys, basis, k, "Q")
        P_next = kernel_of_projection(b.space, b.gramsys, basis, k + 1, "P")
        tele = max(tele, float(np.abs(P_next - P_k - Q_k).max()))
        P_k = P_next
    checks.append(check_error("projection-telescoping", "P_{k+1} = P_k + Q_k",
                              tele, 1e-10))
    return checks


def _suite_analysis(b: Bundle, rng: np.random.Generator):
    checks = []
    space, constants = b.space, b.constants
    radii = an.canonical_radii(space)
    checks.append(check_flag("volume-annulus-dichotomy",
                             "all points and canonical radius pairs",
                             an.dichotomy_holds(space, constants, radii)))
    worst = bmo = carleson = 0.0
    for _ in range(3):
        f = rng.normal(size=space.n)
        rt = an.bmo_carleson_roundtrip(space, b.hierarchy, b.order, b.basis, f)
        worst = max(worst, rt.residual)
        bmo = max(bmo, rt.bmo)
        carleson = max(carleson, rt.carleson)
    checks.append(check_error(
        "oscillation-coefficient-roundtrip",
        f"reconstruction modulo constants; largest BMO norm {bmo:.3g}, "
        f"largest Carleson norm {carleson:.3g}", worst, 1e-8))
    beta = rng.normal(size=space.n)
    P = an.paraproduct_matrix(space, b.hierarchy, b.splines, b.basis, beta)
    err = float(np.abs(P @ np.ones(space.n) - (beta - space.mean(beta))).max())
    checks.append(check_error("paraproduct-unit-image", "applied to constant 1",
                              err, 1e-8))
    if b.basis.is_wavelet.any():
        signs = rng.choice([-1.0, 1.0], size=int(b.basis.is_wavelet.sum()))
        sq = np.sqrt(space.weights)
        symmetrized = sq[:, None] * an.modulated_kernel(b.basis, signs) * sq[None, :]
        norm = an.operator_norm(symmetrized)
        checks.append(check_error("sign-multiplier-contraction",
                                  "operator norm of a random sign flip",
                                  abs(norm - 1.0), 1e-8))
    return checks


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass
class PipelineResult:
    config: PipelineConfig
    bundle: Bundle
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        return format_report(self.checks)


def _write_artifacts(result: PipelineResult, out: Path, system) -> None:
    out.mkdir(parents=True, exist_ok=True)
    b = result.bundle
    save_space(b.space, out / "space.json")
    write_json(out / "constants.json", {
        "A0": b.constants.A0,
        "diam": b.space.diam,
        "min_sep": b.space.min_sep if math.isfinite(b.space.min_sep) else None,
        "cmu2": b.constants.cmu(2.0),
        "eta": b.eta if math.isfinite(b.eta) else None,
    })
    save_nets(b.hierarchy, b.order, out / "nets.json")
    save_system(system, out / "system.json")
    save_splines(b.hierarchy, b.splines, out / "splines.tsv")
    save_gram_system(b.hierarchy, b.gramsys, out)
    save_basis(b.hierarchy, b.basis, out / "basis.json")
    write_report(result.checks, out / "report.json")


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """space -> nets -> order -> cubes -> splines -> gram -> wavelets -> checks."""
    space = resolve_space(config.space)
    bundle = build_bundle(space, config.delta, config.mode)
    result = PipelineResult(config=config, bundle=bundle)
    system = bundle.machine.system(sample_omega(bundle.order, config.seed))
    for suite in config.suites:
        rng = suite_rng(config.seed, suite)
        if suite == "nets":
            result.checks += _suite_nets(bundle)
        elif suite == "cubes":
            result.checks += _suite_cubes(bundle, system)
        elif suite == "splines":
            result.checks += _suite_splines(bundle, config.seed, config.nsamples)
        elif suite == "mra":
            result.checks += _suite_mra(bundle, rng)
        elif suite == "wavelets":
            result.checks += _suite_wavelets(bundle, rng)
        elif suite == "analysis":
            result.checks += _suite_analysis(bundle, rng)
    if config.out is not None:
        _write_artifacts(result, Path(config.out), system)
    return result
