"""Batch front end over the LP, certificate, scan, and protocol layers.

One subcommand per process.  Reports go to stdout (or --out) and are
byte-identical across runs with the same flags and seed; wall-clock
timing is the one nondeterministic item and stays on stderr.  Every
number in a JSON report carries a mode tag naming the arithmetic that
produced it, and exact rationals travel as 'p/q' strings.

Exit status: 0 on success; 2 when an LP comes back infeasible, the exact
and column-generation optima of `--solver both` differ by more than
1e-9, a certificate fails verification, or a measured success rate lands
below the bound it was compared against; 1 for bad flags, cap hits, and
parameter errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

from .caps import exact_protocol_cap
from .combinatorics import MuParams
from .errors import ParameterRangeError, RectboundError
from .lp_bounds import (
    DualCertificate,
    build_lovasz_lp,
    build_search_dual_certificate,
    build_search_lp,
    build_smooth_dual_ndisj,
    build_smooth_lp,
    certificate_from_json,
    certificate_to_json,
    sampling_lemma_scan,
    scan_to_csv,
    solve_constraint_generation,
    solve_full_enumeration,
    verify_dual_certificate,
)
from .lp_bounds.model import KIND_SMOOTH
from .lp_bounds.scan import ScanConfig
from .lp_bounds.solve import ARITH_EXACT, ARITH_FLOAT, LPResult
from .protocols import (
    MODE_EXACT,
    TaskSpec,
    choose_success_bound,
    cost_profile,
    intersecting_blocks,
    make_verified,
    reduce_ndisj_to_search,
    reduce_search_from_kfold,
    success_probability,
    trivial_ndisj,
    trivial_ndisj_kfold,
    trivial_search_kfold,
)
from .protocols.tasks import enumerate_inputs
from .rectangles import string_masks
from .truth_tables import FAMILIES, TruthTable, family

MODE_MC = "monte-carlo-ci"

# Largest exact-vs-CG optimum gap `--solver both` accepts.
_AGREEMENT_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    """Usage problems exit 1; status 2 is reserved for failed verdicts."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _exact(value) -> dict:
    return {"mode": ARITH_EXACT, "value": str(Fraction(value))}


def _float(value) -> dict:
    return {"mode": ARITH_FLOAT, "value": float(value)}


def _mc(value: float, ci: tuple[float, float] | None = None) -> dict:
    doc = {"mode": MODE_MC, "value": float(value)}
    if ci is not None:
        doc["ci95"] = [ci[0], ci[1]]
    return doc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_json(doc: dict, out: str | None) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


# ---------------------------------------------------------------- bound


def _result_doc(res: LPResult) -> dict:
    doc = {
        "status": res.status,
        "solver": res.solver,
        "arithmetic": res.arithmetic,
        "support": len(res.weights),
        "iterations": res.iterations,
        "columns": res.columns,
    }
    if res.status == "optimal":
        if res.arithmetic == ARITH_EXACT:
            doc["optimum"] = _exact(res.optimum)
            opt = float(res.optimum)
        else:
            doc["optimum"] = _float(res.optimum)
            opt = float(res.optimum)
        doc["log2_optimum"] = _float(math.log2(opt)) if opt > 0 else None
        doc["residual"] = _float(res.residual)
        if res.oracle_max is not None:
            doc["oracle_max"] = _float(res.oracle_max)
    return doc


def _optimum_of(res: LPResult):
    return res.optimum if res.status == "optimal" else None


def _solve_lp(lp, solver: str):
    """Returns (doc, representative optimum or None, ok).

    ok is False when a solver's status is not optimal, or when the two
    solvers of `both` disagree by more than _AGREEMENT_TOL.
    """
    if solver == "exact":
        res = solve_full_enumeration(lp)
        return _result_doc(res), _optimum_of(res), res.status == "optimal"
    if solver == "cg":
        res = solve_constraint_generation(lp)
        return _result_doc(res), _optimum_of(res), res.status == "optimal"
    res_e = solve_full_enumeration(lp)
    res_c = solve_constraint_generation(lp)
    doc = {"exact": _result_doc(res_e), "cg": _result_doc(res_c)}
    ok = res_e.status == "optimal" and res_c.status == "optimal"
    if ok:
        gap = abs(float(res_e.optimum) - res_c.optimum)
        doc["agreement_gap"] = _float(gap)
        ok = gap <= _AGREEMENT_TOL
    return doc, _optimum_of(res_e), ok


def cmd_bound(args) -> tuple[dict, int]:
    report: dict = {"subcommand": "bound", "lp": args.lp}
    if args.lp == "search":
        if args.family or args.table:
            raise ParameterRangeError("the search LP is built from sizes, not a function table")
        if args.eps is not None:
            raise ParameterRangeError("--eps applies to the lovasz and smooth LPs only")
        if args.n is None or args.k is None:
            raise ParameterRangeError("the search LP needs --n and --k")
        sigma = Fraction(1) if args.sigma is None else args.sigma
        lp = build_search_lp(args.n, args.k, sigma)
        report.update({"n": args.n, "k": args.k, "sigma": _exact(sigma)})
        doc, _, ok = _solve_lp(lp, args.solver)
        report["result"] = doc
        return report, 0 if ok else 2

    if args.sigma is not None:
        raise ParameterRangeError("--sigma applies to the search LP only")
    if args.k is not None:
        raise ParameterRangeError("--k applies to the search LP only")
    if args.table is not None:
        if args.family is not None:
            raise ParameterRangeError("pass either --family or --table, not both")
        table = TruthTable.from_text(Path(args.table).read_text())
        if args.n is not None and args.n != table.n:
            raise ParameterRangeError(f"--n {args.n} disagrees with the table ({table.n})")
        report["table"] = args.table
    else:
        if args.family is None:
            raise ParameterRangeError("this LP kind needs --family or --table")
        if args.n is None:
            raise ParameterRangeError("--family needs --n")
        table = family(args.family, args.n)
        report["family"] = args.family.upper()
    eps = Fraction(0) if args.eps is None else args.eps
    report.update({"n": table.n, "eps": _exact(eps)})

    if args.lp == "lovasz":
        doc, _, ok = _solve_lp(build_lovasz_lp(table, eps), args.solver)
        report["result"] = doc
        return report, 0 if ok else 2

    doc, smooth_opt, ok = _solve_lp(build_smooth_lp(table, eps), args.solver)
    lov_doc, lov_opt, lov_ok = _solve_lp(build_lovasz_lp(table, eps), args.solver)
    report["result"] = doc
    report["lovasz_result"] = lov_doc
    if smooth_opt is not None and lov_opt is not None:
        report["smooth_dominates"] = bool(float(smooth_opt) >= float(lov_opt) - 1e-9)
    return report, 0 if ok and lov_ok else 2


# -------------------------------------------------------------- certify


def _rectangle_doc(rect) -> dict:
    return {
        "n": rect.n,
        "rows": list(string_masks(rect.rows)),
        "cols": list(string_masks(rect.cols)),
    }


def _build_certificate(args) -> DualCertificate:
    if args.certificate is not None:
        for name in ("kind", "k", "m", "alpha"):
            if getattr(args, name) is not None:
                raise ParameterRangeError("--certificate replaces the construction flags")
        if args.n is not None or args.beta is not None:
            raise ParameterRangeError("--certificate replaces the construction flags")
        return certificate_from_json(Path(args.certificate).read_text())
    if args.kind == "search":
        missing = [f for f in ("n", "k", "m", "alpha", "beta") if getattr(args, f) is None]
        if missing:
            raise ParameterRangeError(f"search certificate needs --{', --'.join(missing)}")
        return build_search_dual_certificate(args.n, args.k, args.m, args.alpha, args.beta)
    if args.kind == "smooth":
        if args.n is None or args.beta is None:
            raise ParameterRangeError("smooth certificate needs --n and --beta")
        if args.k is not None or args.m is not None or args.alpha is not None:
            raise ParameterRangeError("the smooth construction takes only --n and --beta")
        return build_smooth_dual_ndisj(args.n, args.beta)
    raise ParameterRangeError("pass --kind search|smooth or --certificate FILE")


def cmd_certify(args) -> tuple[dict, int]:
    cert = _build_certificate(args)
    if args.save is not None:
        Path(args.save).write_text(
            json.dumps(certificate_to_json(cert), indent=2, sort_keys=True) + "\n"
        )
    eps = Fraction(0) if args.eps is None else args.eps
    if eps != 0 and cert.kind != KIND_SMOOTH:
        raise ParameterRangeError("--eps applies to smooth certificates only")
    value = cert.objective_value(eps) if cert.kind == KIND_SMOOTH else cert.objective_value()
    rep = verify_dual_certificate(cert, mode=args.verify_mode, tol=args.tol)

    cert_doc = {
        "kind": cert.kind,
        "universe": cert.universe,
        "n": cert.n,
        "k": cert.k,
        "m": cert.m,
        "alpha": None if cert.alpha is None else str(cert.alpha),
        "beta": None if cert.beta is None else str(cert.beta),
        "sigma": None if cert.sigma is None else str(cert.sigma),
        "degenerate": cert.degenerate,
        "family": cert.family.describe(),
        "phi_support": cert.phi.support_size,
        "psi_support": cert.psi.support_size,
    }
    verification = {
        "mode": rep.mode,
        "feasible": rep.feasible,
        "sign_ok": rep.sign_ok,
        "max_rectangle_weight": _exact(rep.max_weight),
        "tol": _exact(rep.tol),
    }
    if not rep.feasible:
        verification["witness"] = _rectangle_doc(rep.argmax)
        if rep.witness is not None:
            verification["witness_coords"] = sorted(rep.witness.coords)
    report = {
        "subcommand": "certify",
        "certificate": cert_doc,
        "eps": _exact(eps),
        "value": _exact(value),
        "log2_value": _float(math.log2(value)) if value > 0 else None,
        "verification": verification,
    }
    return report, 0 if rep.feasible else 2


# ----------------------------------------------------------------- scan


def cmd_scan(args) -> tuple[str, int]:
    m = args.n // 4 if args.m is None else args.m
    densities = tuple(float(d) for d in args.densities.split(","))
    cfg = ScanConfig(
        gamma=args.gamma,
        delta=args.delta,
        samples=args.samples,
        seed=args.seed,
        densities=densities,
        exhaustive_limit=args.exhaustive_limit,
    )
    report = sampling_lemma_scan(MuParams(0, args.n, m), args.target_k, cfg)
    return scan_to_csv(report), 0


# ------------------------------------------------------------- protocol


def _success_doc(rep) -> dict:
    if rep.mode == MODE_EXACT:
        doc = {
            "mode": ARITH_EXACT,
            "worst": _exact(rep.worst),
            "average": _exact(rep.average),
            "rejected": _exact(rep.rejected),
            "wrong": _exact(rep.wrong),
        }
    else:
        doc = {
            "mode": MODE_MC,
            "worst": _mc(float(rep.worst)),
            "average": _mc(float(rep.average), rep.wilson),
            "rejected": _mc(float(rep.rejected)),
            "wrong": _mc(float(rep.wrong)),
        }
    doc["inputs_checked"] = rep.inputs_checked
    doc["worst_input"] = list(rep.worst_input)
    return doc


def _bits_doc(proto, inputs) -> dict:
    prof = cost_profile(proto, inputs)
    return {
        "max_declared": prof.declared,
        "observed_max": prof.observed_max,
        "observed_min": prof.observed_min,
        "uniform": prof.uniform,
        "histogram": {str(bits): count for bits, count in prof.histogram.items()},
    }


def _probe_inputs(task: TaskSpec, samples: int | None, seed: int | None, limit: int = 512):
    """Inputs for the bits histogram; sampled when enumeration is too big."""
    side = 1 << task.input_bits
    if side * side <= exact_protocol_cap():
        return list(enumerate_inputs(task))
    if samples is None or seed is None:
        raise ParameterRangeError("this input space needs --samples and --seed")
    rng = Random(seed)
    return [(rng.randrange(side), rng.randrange(side)) for _ in range(min(samples, limit))]


def _measure(proto, task: TaskSpec, args):
    side = 1 << task.input_bits
    if side * side <= exact_protocol_cap():
        return success_probability(proto, task)
    if args.samples is None or args.seed is None:
        raise ParameterRangeError("this input space needs --samples and --seed")
    return success_probability(proto, task, samples=args.samples, seed=args.seed)


def cmd_protocol(args) -> tuple[dict, int]:
    if args.proto == "trivial-ndisj":
        if args.k != 1:
            raise ParameterRangeError("trivial-ndisj is single-instance; drop --k")
        base = trivial_ndisj(args.n)
        task = TaskSpec("ndisj-kfold", args.n, 1)
    elif args.proto == "trivial-ndisj-kfold":
        base = trivial_ndisj_kfold(args.n, args.k)
        task = TaskSpec("ndisj-kfold", args.n, args.k)
    else:
        base = trivial_search_kfold(args.n, args.k)
        task = TaskSpec("search-kfold", args.n, args.k)

    if args.verify_wrap != "none":
        base = make_verified(base, task, args.verify_wrap)

    report: dict = {
        "subcommand": "protocol",
        "proto": args.proto,
        "n": args.n,
        "k": args.k,
        "verify_wrap": args.verify_wrap,
    }
    exit_code = 0

    if args.compose == "halving":
        if task.kind != "ndisj-kfold":
            raise ParameterRangeError("halving composes an intersection protocol")
        if args.s is None:
            raise ParameterRangeError("halving needs --s")
        base_rep = _measure(base, task, args)
        proto, breakdown = reduce_ndisj_to_search(base, args.n, args.k, args.s)
        task = TaskSpec("search-kfold", args.n, args.k)
        sigma = base_rep.worst
        analytic = sigma ** (args.s + 1)
        rep = _measure(proto, task, args)
        meets = rep.worst >= analytic
        report["compose"] = {
            "kind": "halving",
            "s": args.s,
            "breakdown": {
                "base_cost": breakdown.base_cost,
                "calls": breakdown.calls,
                "echo_bits": breakdown.echo_bits,
                "final_alice_bits": breakdown.final_alice_bits,
                "final_bob_bits": breakdown.final_bob_bits,
                "window": breakdown.window,
                "total": breakdown.total,
            },
            "base_success_worst": _exact(base_rep.worst),
            "analytic_bound": _exact(analytic),
            "meets_bound": bool(meets),
        }
        if not meets:
            exit_code = 2
    elif args.compose == "permute":
        if task.kind != "search-kfold":
            raise ParameterRangeError("permute composes a search protocol")
        if args.choose is None:
            raise ParameterRangeError("permute needs --choose")
        # Composed first: the library refuses past its permutation limit
        # before the base is measured.
        proto = reduce_search_from_kfold(
            base, args.n, args.k, args.choose, perm_samples=args.perm_samples, seed=args.seed
        )
        base_rep = _measure(base, task, args)
        task = TaskSpec("search-choose", args.n, args.k, choose=args.choose)
        promise = [
            (x, y)
            for x, y in enumerate_inputs(task)
            if intersecting_blocks(task, x, y) >= args.choose
        ]
        if not promise:
            raise ParameterRangeError("no input meets the intersection promise")
        bound = choose_success_bound(base_rep.worst, args.k, args.choose)
        rep = success_probability(proto, task, inputs=promise)
        meets = rep.worst >= bound.scaled_outside and rep.worst >= bound.scaled_inside
        report["compose"] = {
            "kind": "permute",
            "choose": args.choose,
            "branches": len(proto.branches),
            "alpha": _exact(bound.alpha),
            "base_success_worst": _exact(base_rep.worst),
            "bound_outside": _exact(bound.scaled_outside),
            "bound_inside": _exact(bound.scaled_inside),
            "promise_inputs": len(promise),
            "meets_bound": bool(meets),
        }
        if not meets:
            exit_code = 2
        report["task"] = task.describe()
        report["worst_cost"] = proto.worst_cost
        report["success"] = _success_doc(rep)
        report["bits"] = _bits_doc(proto, promise)
        return report, exit_code
    else:
        proto = base
        rep = _measure(proto, task, args)

    report["task"] = task.describe()
    report["worst_cost"] = proto.worst_cost
    report["success"] = _success_doc(rep)
    report["bits"] = _bits_doc(proto, _probe_inputs(task, args.samples, args.seed))
    return report, exit_code


# ----------------------------------------------------------------- main


def build_parser() -> _Parser:
    parser = _Parser(prog="rectbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    p = sub.add_parser("bound", help="build a cover LP and report its optimum")
    p.add_argument("--lp", required=True, choices=("lovasz", "smooth", "search"))
    p.add_argument("--family", choices=[f for f in FAMILIES], type=str.upper, default=None)
    p.add_argument("--table", default=None, help="truth-table file (first line n, then the grid)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="search meet size")
    p.add_argument("--eps", type=_rational, default=None)
    p.add_argument("--sigma", type=_rational, default=None)
    p.add_argument("--solver", choices=("exact", "cg", "both"), default="exact")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_bound)

    p = sub.add_parser("certify", help="build or load a dual certificate and verify it")
    p.add_argument("--kind", choices=("search", "smooth"), default=None)
    p.add_argument("--certificate", default=None, help="certificate JSON file to load")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--alpha", type=_rational, default=None)
    p.add_argument("--beta", type=_rational, default=None)
    p.add_argument("--eps", type=_rational, default=None)
    p.add_argument("--verify-mode", choices=("auto", "exhaustive", "oracle"), default="auto")
    p.add_argument("--tol", type=_rational, default=Fraction(0))
    p.add_argument("--save", default=None, help="write the certificate JSON here")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("scan", help="seeded rectangle mass scan, CSV output")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="set size, default n // 4")
    p.add_argument("--target-k", type=int, default=1)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--densities", default="0.9,0.75,0.5")
    p.add_argument("--exhaustive-limit", type=int, default=4096)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("protocol", help="simulate a protocol, optionally composed")
    p.add_argument(
        "--proto",
        required=True,
        choices=("trivial-ndisj", "trivial-ndisj-kfold", "trivial-search-kfold"),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--verify-wrap", choices=("none", "explicit", "two_bit"), default="none")
    p.add_argument("--compose", choices=("halving", "permute"), default=None)
    p.add_argument("--s", type=int, default=None, help="halving rounds")
    p.add_argument("--choose", type=int, default=None, help="claims required after permuting")
    p.add_argument("--perm-samples", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_protocol)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 1
    start = time.perf_counter()
    try:
        payload, code = args.handler(args)
    except RectboundError as exc:
        print(f"rectbound: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"rectbound: error: {exc}", file=sys.stderr)
        return 1
    if isinstance(payload, str):
        _emit(payload, args.out)
    else:
        _emit_json(payload, args.out)
    print(f"runtime: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
