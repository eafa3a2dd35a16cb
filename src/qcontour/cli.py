"""Command-line interface.

Subcommands: ``propagate``, ``measure``, ``decompose``, ``verify``,
``envariance``.  All reports are deterministic given the input files, the
flags and the seed.  Exit codes: 0 success, 1 verification checks failed,
otherwise the ``exit_code`` of the package error raised (see ``errors``).

``main`` parses with one parser, built on its first call and kept for the
rest of the process, so in-process callers do not rebuild the argparse
tree on every call; ``build_parser()`` still returns a fresh parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, linalg
from .dynamics import HamiltonianSchedule, propagate
from .envariance import BipartiteState, check_envariance
from .errors import ModelFormatError, QContourError, ValidationError
from .histories import FixedPoint, enumerate_family
from .measure import (DecompositionMode, _branch_weights, _decompose,
                      measure_report, transfer_chain)
from .models import (ModelSpec, load_model, matrix_from_json,
                     matrix_to_json, read_json, vector_from_json)
from .oracle import (OutcomeDistribution, _unchecked_chain,
                     monte_carlo_sample, require_sample_count)
from .sampling import random_model, rng_from_seed


def _round15(value):
    """Round floats (recursively) to 15 significant digits for reports."""
    if isinstance(value, float):
        return float(f"{value:.15g}")
    if isinstance(value, dict):
        return {k: _round15(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round15(v) for v in value]
    return value


def _emit(doc: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(_round15(doc), indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.12e}{z.imag:+.12e}j"


def cmd_propagate(args) -> int:
    model = load_model(args.model)
    u = propagate(model.schedule, args.t_a, args.t_b)
    defect = linalg.unitary_defect(u)
    doc = {
        "command": "propagate",
        "t_a": float(args.t_a),
        "t_b": float(args.t_b),
        "dim": model.dim,
        "matrix": matrix_to_json(u),
        "unitary_defect": defect,
    }
    lines = [f"propagator from t={args.t_a:g} to t={args.t_b:g} "
             f"(dim {model.dim})"]
    for row in u:
        lines.append("  ".join(_fmt_complex(z) for z in row))
    lines.append(f"unitary defect: {defect:.3e}")
    _emit(doc, lines, args.format)
    return 0


def cmd_measure(args) -> int:
    model = load_model(args.model)
    fam = enumerate_family(model)
    report = measure_report(fam, model.schedule,
                            steps_per_segment=args.steps_per_segment)
    rows = list(report.rows())
    entries = [{"labels": labels, "choices": choice, "delta_psi": w,
                "delta_psi_contour": alt, "measure": m}
               for labels, w, m, choice, alt in rows]
    doc = {
        "command": "measure",
        "constraint_times": list(report.constraint_times),
        "normalization": report.normalization,
        "entries": entries,
        "route_max_discrepancy": report.route_max_discrepancy,
        "steps_per_segment": args.steps_per_segment,
    }
    lines = [f"{len(entries)} histories, "
             f"constraints at {list(report.constraint_times)}",
             f"normalization: {report.normalization:.15g}"]
    for labels, w, m, _, _ in rows:
        lines.append(f"  {'.'.join(labels):<24} "
                     f"delta_psi={w:.15g}  "
                     f"measure={m:.15g}")
    lines.append(f"route max discrepancy: "
                 f"{report.route_max_discrepancy:.3e}")
    _emit(doc, lines, args.format)
    return 0


def cmd_decompose(args) -> int:
    model = load_model(args.model)
    weights = _branch_weights(model, model.schedule)  # one weighing
    results = {mode: _decompose(mode, *weights) for mode in DecompositionMode}
    totals = [r.total for r in results.values()]
    spread = max(totals) - min(totals)
    doc = {
        "command": "decompose",
        "modes": {mode.value: {"total": r.total, "terms": list(r.terms)}
                  for mode, r in results.items()},
        "max_total_spread": spread,
    }
    lines = []
    for mode, r in results.items():
        terms = ", ".join(f"{t:.15g}" for t in r.terms)
        lines.append(f"{mode.value}: total={r.total:.15g}  terms=[{terms}]")
    lines.append(f"max total spread: {spread:.3e}")
    _emit(doc, lines, args.format)
    if spread > linalg.ROUNDING_TOL:
        raise ValidationError(f"decomposition totals disagree by {spread:.3e}")
    return 0


def _builtin_verify_models(seed: int) -> list[tuple[str, ModelSpec]]:
    """Deterministic default suite: fixed qubit toy plus seeded random models."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    e0 = np.array([1.0, 0.0], dtype=complex)
    comp2 = tuple(np.eye(2, dtype=complex)[:, k] for k in range(2))
    born = ModelSpec(
        times=(0.0, math.pi / 4),
        schedule=HamiltonianSchedule.constant(sx, 0.0, math.pi / 4),
        bases=(comp2, comp2),
        constraints=(FixedPoint(0.0, e0, label="prep"),))
    models = [("born-qubit", born)]

    recipes = [
        ("rand-qubit-3t", 2, (0.0, 0.6, 1.3), 1),
        ("rand-qutrit-3t", 3, (0.0, 0.5, 1.1), 1),
        ("post-selected-qubit", 2, (0.0, 0.7, 1.5), 2),
        ("rand-d4-3t", 4, (0.0, 0.4, 0.9), 1),
    ]
    for i, (name, dim, times, s_t) in enumerate(recipes):
        rng = rng_from_seed(10_000 * (seed + 1) + i)
        models.append((name, random_model(rng, times, dim, s_t)))
    return models


def _verify_one(name: str, model: ModelSpec, trials: int, seed: int,
                steps: int, tol: float) -> dict:
    fam = enumerate_family(model)
    report = measure_report(fam, model.schedule, steps_per_segment=steps)
    normalization_error = abs(float(report.measures.sum()) - 1.0)
    route_discrepancy = report.route_max_discrepancy

    # the chain starts from every state of the first slot; its rows run in
    # the order of the family's index, which keys them, so the distribution
    # checks their sum and the columns compare by position
    dist = OutcomeDistribution._from_distinct(fam.index, _unchecked_chain(
        model.slot_states, model.slot_times, model.schedule))
    chain_deviation = float(np.max(np.abs(report.measures
                                          - dist.probabilities)))
    # the normalization and each slot's marginal measures from the transfer
    # chain, which weighs no member, against the report's columns
    normalization, marginals = transfer_chain(model, model.schedule)
    direct_deviation = max(
        abs(normalization / report.normalization - 1.0),
        *(float(np.max(np.abs(marginal - np.bincount(
            column, report.measures, minlength=marginal.size))))
          for marginal, column in zip(marginals, fam.index.T)))

    table = monte_carlo_sample(
        OutcomeDistribution._from_distinct(fam.choices, report.measures),
        trials, seed)

    passed = (normalization_error <= tol and route_discrepancy <= tol
              and chain_deviation <= tol and direct_deviation <= tol
              and table.all_within_band)
    return {
        "name": name,
        "dim": model.dim,
        "n_times": len(model.times),
        "s_t": len(model.constraints),
        "n_histories": len(fam.index),
        "normalization_error": normalization_error,
        "route_discrepancy": route_discrepancy,
        "chain_deviation": chain_deviation,
        "direct_deviation": direct_deviation,
        "mc_max_sigma": table.max_sigma,
        "mc_all_within_band": table.all_within_band,
        "pass": passed,
    }


def cmd_verify(args) -> int:
    # the sampler's count and seed rules, applied before any model is built
    require_sample_count(args.trials)
    linalg.require_count(args.seed, "seed", 0)
    if args.model is not None:
        models = [(str(args.model), load_model(args.model))]
    else:
        models = _builtin_verify_models(args.seed)
    rows = []
    for i, (name, model) in enumerate(models):
        rows.append(_verify_one(name, model, args.trials, args.seed + i,
                                args.steps_per_segment, args.tol))
    all_pass = all(r["pass"] for r in rows)
    doc = {
        "command": "verify",
        "seed": args.seed,
        "trials": args.trials,
        "tol": args.tol,
        "models": rows,
        "all_pass": all_pass,
    }
    lines = []
    for r in rows:
        lines.append(
            f"{'PASS' if r['pass'] else 'FAIL'} {r['name']:<22} "
            f"d={r['dim']} N_t={r['n_times']} S_t={r['s_t']} "
            f"norm={r['normalization_error']:.2e} "
            f"route={r['route_discrepancy']:.2e} "
            f"chain={r['chain_deviation']:.2e} "
            f"mc_sigma={r['mc_max_sigma']:.2f}")
    lines.append(f"{'PASS' if all_pass else 'FAIL'}: "
                 f"{sum(r['pass'] for r in rows)}/{len(rows)} models")
    _emit(doc, lines, args.format)
    return 0 if all_pass else 1


def cmd_envariance(args) -> int:
    state_doc = read_json(args.state)
    for key in ("dim_a", "dim_b", "amplitudes"):
        if key not in state_doc:
            raise ModelFormatError(f"state file is missing key {key!r}")
    for key in ("dim_a", "dim_b"):
        if type(state_doc[key]) is not int:
            raise ModelFormatError(
                f"{key}: expected an integer, got {state_doc[key]!r}")
    psi = BipartiteState(
        state_doc["dim_a"], state_doc["dim_b"],
        vector_from_json(state_doc["amplitudes"], "amplitudes"))
    transform_doc = read_json(args.transform)
    if "matrix" not in transform_doc:
        raise ModelFormatError("transform file is missing key 'matrix'")
    u_a = matrix_from_json(transform_doc["matrix"], "matrix")
    result = check_envariance(psi, u_a, tol=args.tol)
    doc = {
        "command": "envariance",
        "envariant": result.envariant,
        "counter": (None if result.counter is None
                    else matrix_to_json(result.counter)),
        "residual": result.residual,
    }
    lines = [f"envariant: {result.envariant}"]
    if result.counter is not None:
        lines.append("counter transformation on B:")
        for row in result.counter:
            lines.append("  ".join(_fmt_complex(z) for z in row))
    if result.residual is not None:
        lines.append(f"residual: {result.residual:.3e}")
    _emit(doc, lines, args.format)
    return 0


def _tolerance(text: str) -> float:
    """A ``--tol`` value: a finite number that ``linalg.require_tolerance``
    accepts; anything else is a usage error (exit 2)."""
    try:
        tol = linalg.require_tolerance(text)
        if math.isfinite(tol):
            return tol
    except ValidationError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a finite, non-negative number, got {text!r}")


_FLAGS = {
    "--tol": dict(type=_tolerance, default=linalg.DEFAULT_TOL,
                  help="comparison tolerance (default %(default)g)"),
    "--steps-per-segment": dict(
        type=int, default=8, help="sub-steps per contour segment (default 8)"),
    "--seed": dict(type=int, default=0, help="sampling seed (default 0)"),
    "--trials": dict(type=int, default=100_000,
                     help="Monte Carlo sample count (default 100000)"),
    "--format": dict(choices=("text", "structured"), default="text",
                     help="plain-text summary or machine-readable JSON"),
}


def _add_flags(cmd, *names) -> None:
    """Declare the named flags, the ones the subcommand reads."""
    for name in names:
        cmd.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcontour",
        description="Multi-time quantum histories on a doubled time contour")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate",
                       help="print the unitary propagator between two times")
    p.add_argument("model")
    p.add_argument("t_a", type=float)
    p.add_argument("t_b", type=float)
    _add_flags(p, "--format")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("measure",
                       help="measures of existence for a constrained family")
    p.add_argument("model")
    _add_flags(p, "--steps-per-segment", "--format")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("decompose",
                       help="four world decompositions of a branch bundle")
    p.add_argument("model")
    _add_flags(p, "--format")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify",
                       help="cross-check measures against the oracles")
    p.add_argument("model", nargs="?", default=None)
    _add_flags(p, *_FLAGS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("envariance",
                       help="search for a counter-transformation on B")
    p.add_argument("state")
    p.add_argument("transform")
    _add_flags(p, "--tol", "--format")
    p.set_defaults(func=cmd_envariance)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use and kept for the process.

    A parser holds no model data and no flag values (each ``parse_args``
    fills a new namespace), so one serves every call of ``main``.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except QContourError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
