"""hwave command line: build, sample, verify and analyze on finite spaces."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis as an
from .mra import decay_exponent_s, decay_fit, save_gram_system, save_matrix_csv
from .nets import build_nets, build_reference_order, load_nets, save_nets
from .pipeline import SUITES, PipelineConfig, build_bundle, run_pipeline
from .randomized import (CubeMachine, boundary_layer_probability, sample_omega,
                         save_system)
from .report import format_report
from .space import compute_constants, resolve_space, save_space
from .splines import holder_profile, save_splines
from .wavelets import decay_and_regularity_report, save_basis, wavelet_decay_a


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--space", required=True,
                        help="fixture name, generator descriptor, or space file")
    parser.add_argument("--delta", type=float, default=0.25)
    parser.add_argument("--mode", choices=("strict", "relaxed"), default="relaxed")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("-o", "--out", type=Path, default=None)


def _outdir(args) -> Path:
    out = args.out or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_function(path: str, n: int) -> np.ndarray:
    values = np.asarray(json.loads(Path(path).read_text()), dtype=float)
    if values.shape != (n,):
        raise SystemExit(f"function file must hold {n} values")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise SystemExit(f"function file value {bad[0]} is {values[bad[0]]}, "
                         "not a finite number")
    return values


def _cmd_space(args) -> int:
    space = resolve_space(args.space)
    constants = compute_constants(space)
    print(f"{space.name or args.space}: n={space.n} diam={space.diam:g} "
          f"min_sep={space.min_sep:g}")
    print(f"A0={constants.A0:g} N_geo>={constants.n_geo_lower_bound} "
          f"(greedy packing) Cmu(2)={constants.cmu(2.0):g}")
    if args.out:
        out = _outdir(args)
        save_space(space, out / "space.json")
    return 0


def _cmd_nets(args) -> int:
    space = resolve_space(args.space)
    constants = compute_constants(space)
    h = build_nets(space, constants, args.delta, args.mode)
    order = build_reference_order(space, constants, h)
    # build_nets verified the hierarchy and raises on any failing record
    sizes = {k: h.level(k).size for k in range(h.k_coarse, h.k_fine + 1)}
    print(f"levels {h.k_coarse}..{h.k_fine}, sizes {sizes}, "
          f"L={order.L} M={order.M}, verified=True")
    if args.out:
        save_nets(h, order, _outdir(args) / "nets.json")
    return 0


def _cmd_cubes(args) -> int:
    space = resolve_space(args.space)
    constants = compute_constants(space)
    if args.nets:
        hierarchy, order = load_nets(args.nets, space, constants, args.delta,
                                     args.mode)
    else:
        hierarchy = build_nets(space, constants, args.delta, args.mode)
        order = build_reference_order(space, constants, hierarchy)
    machine = CubeMachine(space, constants, hierarchy, order)
    if args.action == "sample":
        system = machine.system(sample_omega(order, args.seed))
        target = (args.out / "system.json") if args.out else Path("system.json")
        target.parent.mkdir(parents=True, exist_ok=True)
        save_system(system, target)
        print(f"system for seed {args.seed} written to {target}")
        return 0
    # boundary study
    lines = ["eps\testimate\tstderr\ttheory_bound"]
    for eps in args.eps.split(","):
        est = boundary_layer_probability(machine, args.x, args.k, float(eps),
                                         args.nsamples, args.seed)
        lines.append(f"{est.eps!r}\t{est.estimate!r}\t{est.stderr!r}\t"
                     f"{est.theory_bound!r}")
    target = (args.out / "boundary.tsv") if args.out else None
    text = "\n".join(lines) + "\n"
    if target:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    print(text, end="")
    return 0


def _cmd_splines(args) -> int:
    space = resolve_space(args.space)
    bundle = build_bundle(space, args.delta, args.mode)
    h = bundle.hierarchy
    if args.action == "build":
        if args.out:
            save_splines(h, bundle.splines, _outdir(args) / "splines.tsv")
        print(f"splines built for levels {h.k_coarse}..{h.k_fine}")
        return 0
    if args.action == "check":
        from .splines import verify_spline_table
        checks = verify_spline_table(space, bundle.constants, h,
                                     bundle.transitions, bundle.splines)
        print(format_report(checks))
        return 0 if all(c.passed for c in checks) else 1
    # holder
    k = args.level if args.level is not None else max(h.k_fine - 1, h.k_coarse)
    prof = holder_profile(space, h, bundle.splines, k, bundle.eta)
    print(f"level {k}: holder constant {prof.constant:g} at exponent "
          f"{prof.eta:g} (witness {prof.witness})")
    return 0


def _cmd_mra(args) -> int:
    space = resolve_space(args.space)
    bundle = build_bundle(space, args.delta, args.mode)
    h = bundle.hierarchy
    if args.action == "build":
        if args.out:
            save_gram_system(h, bundle.gramsys, _outdir(args))
        print("gram system built")
        return 0
    if args.action == "riesz":
        for k in range(h.k_coarse, h.k_fine + 1):
            lo, hi = bundle.gramsys.at(k).riesz
            print(f"level {k}: riesz bounds [{lo:.6g}, {hi:.6g}]")
        return 0
    # decay
    s = decay_exponent_s(bundle.constants)
    for k in range(h.k_coarse, h.k_fine + 1):
        lv = bundle.gramsys.at(k)
        try:
            prof = decay_fit(lv.Minv, h.level(k), space, h.scale(k), s)
        except ValueError:
            print(f"level {k}: too few entries to fit")
            continue
        tag = " (degenerate)" if prof.degenerate else ""
        print(f"level {k}: s={s:g} gamma={prof.gamma:g} C={prof.C:g} "
              f"residual={prof.max_residual:g}{tag}")
    return 0


def _cmd_wavelets(args) -> int:
    space = resolve_space(args.space)
    bundle = build_bundle(space, args.delta, args.mode)
    basis = bundle.basis
    if args.action == "build":
        target = (args.out / "basis.json") if args.out else Path("basis.json")
        target.parent.mkdir(parents=True, exist_ok=True)
        save_basis(bundle.hierarchy, basis, target)
        print(f"{basis.n_members}-member basis written to {target}")
        return 0
    if args.action == "verify":
        # assemble_basis raised unless its records (Gram, count) passed
        print(format_report(basis.checks))
        means = basis.wavelet_values @ space.weights
        mean_err = float(np.abs(means).max()) if means.size else 0.0
        a = wavelet_decay_a(bundle.constants)
        print(f"vanishing-mean error {mean_err:.3g}, decay exponent a={a:g}")
        for rep in decay_and_regularity_report(space, bundle.constants,
                                               bundle.hierarchy, basis,
                                               bundle.eta):
            print(f"level {rep.level}: gamma={rep.gamma:.4g} C={rep.C:.4g} "
                  f"holder_sup={rep.holder_sup:.4g}")
        return 0
    # transform
    f = _load_function(args.function, space.n)
    coeffs = basis.analyze(f)
    back = basis.synthesize(coeffs)
    print(f"round trip residual {float(np.abs(back - f).max()):.3g}")
    if args.out:
        out = _outdir(args)
        (out / "coefficients.json").write_text(
            json.dumps(coeffs.tolist()) + "\n")
    return 0


def _cmd_analyze(args) -> int:
    space = resolve_space(args.space)
    bundle = build_bundle(space, args.delta, args.mode)
    h, order, basis = bundle.hierarchy, bundle.order, bundle.basis
    rng = np.random.default_rng(args.seed)
    if args.action == "dichotomy":
        r = args.r if args.r is not None else space.min_sep
        R = args.R if args.R is not None else space.diam
        verdict = an.empty_annulus_dichotomy(space, bundle.constants,
                                             args.x, r, R)
        print(f"x={args.x} r={r:g} R={R:g}: {verdict.verdict}")
        return 0
    if args.action == "sums":
        sup = an.sum_large_balls_sup(space, h, nu=1.0, a=1.0, gamma=1.0)
        ks = an.verify_kernel_sums(space, bundle.constants, basis, bundle.eta)
        print(f"large-ball sum sup {sup:g}; kernel sums: product {ks.c_product:g}, "
              f"difference {ks.c_difference:g}")
        return 0
    if args.action == "bmo":
        f = _load_function(args.function, space.n) if args.function else \
            rng.normal(size=space.n)
        print(f"bmo: {an.bmo_norm(space, f):g} "
              f"(median-centred {an.bmo_norm(space, f, 'median'):g})")
        return 0
    if args.action == "carleson":
        f = _load_function(args.function, space.n) if args.function else \
            rng.normal(size=space.n)
        coeffs = an.bmo_to_coefficients(basis, f)
        print(f"carleson: {an.carleson_norm(space, h, order, basis, coeffs):g}")
        return 0
    if args.action == "paraproduct":
        beta = _load_function(args.function, space.n) if args.function else \
            rng.normal(size=space.n)
        P = an.paraproduct_matrix(space, h, bundle.splines, basis, beta)
        err = float(np.abs(P @ np.ones(space.n)
                           - (beta - space.mean(beta))).max())
        print(f"paraproduct unit-image error {err:.3g}, "
              f"norm {an.operator_norm(P):g}")
        if args.out:
            save_matrix_csv(P, _outdir(args) / "paraproduct.csv")
        return 0
    # operator
    K = an.discrete_hilbert_kernel(space.n)
    C = an.operator_wavelet_matrix(space, basis, K, kind="kernel")
    s1, s2 = an.schur_statistic(space, basis, C)
    print(f"hilbert-type kernel: operator norm {an.operator_norm(C):g}, "
          f"schur bound {max(s1, s2):g}")
    if args.out:
        save_matrix_csv(C, _outdir(args) / "operator_coefficients.csv")
    return 0


def _cmd_run(args) -> int:
    config = PipelineConfig(space=args.space, delta=args.delta, mode=args.mode,
                            seed=args.seed, nsamples=args.nsamples,
                            out=str(args.out) if args.out else None,
                            suites=tuple(args.suite) if args.suite else SUITES)
    result = run_pipeline(config)
    print(result.format())
    n_fail = sum(not c.passed for c in result.checks)
    print(f"{len(result.checks) - n_fail}/{len(result.checks)} checks passed")
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwave",
        description="Randomized dyadic cubes, splines and wavelets on finite "
                    "doubling quasi-metric spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space", help="load or generate a space, report constants")
    _common(p)
    p.set_defaults(func=_cmd_space)

    p = sub.add_parser("nets", help="build and verify the net hierarchy")
    _common(p)
    p.set_defaults(func=_cmd_nets)

    p = sub.add_parser("cubes", help="sample randomized systems")
    p.add_argument("action", choices=("sample", "boundary"))
    _common(p)
    p.add_argument("--nets", type=Path, default=None,
                   help="reuse a previously written nets file")
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--eps", default="0.5,0.25,0.125")
    p.add_argument("--nsamples", type=int, default=10000)
    p.set_defaults(func=_cmd_cubes)

    p = sub.add_parser("splines", help="build, check or profile the splines")
    p.add_argument("action", choices=("build", "check", "holder"))
    _common(p)
    p.add_argument("--level", type=int, default=None)
    p.set_defaults(func=_cmd_splines)

    p = sub.add_parser("mra", help="gram system, riesz bounds, decay fits")
    p.add_argument("action", choices=("build", "riesz", "decay"))
    _common(p)
    p.set_defaults(func=_cmd_mra)

    p = sub.add_parser("wavelets", help="build, verify or apply the basis")
    p.add_argument("action", choices=("build", "verify", "transform"))
    _common(p)
    p.add_argument("--function", default=None,
                   help="JSON file with one value per point")
    p.set_defaults(func=_cmd_wavelets)

    p = sub.add_parser("analyze", help="function-space and operator diagnostics")
    p.add_argument("action", choices=("dichotomy", "sums", "bmo", "carleson",
                                      "paraproduct", "operator"))
    _common(p)
    p.add_argument("--function", default=None)
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--R", type=float, default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("run", help="full pipeline with artifacts and report")
    _common(p)
    p.add_argument("--nsamples", type=int, default=PipelineConfig.nsamples)
    p.add_argument("--suite", action="append", choices=SUITES)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface module errors with a nonzero status
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
