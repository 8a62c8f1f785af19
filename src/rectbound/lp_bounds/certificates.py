"""Hand-built dual solutions for the rectangle LPs, and their verification.

A certificate pairs a nonnegative weight map `phi` on the cover pairs with a
nonpositive map `psi` on capped pairs.  It is feasible for its rectangle
family when every member rectangle carries combined weight at most 1, the
unit cost of a column.  Its value, the lower bound it witnesses, is the
right-hand sides paired against the duals:

* search:  sigma * sum(phi) + sum(psi)
* smooth:  (1 - eps) * sum(phi) + sum(psi)

Verification never assumes feasibility; it measures the worst rectangle and
reports the verdict, either through the Gray-code maximization oracle or by
an exhaustive sweep that shares no code with it.  The sweep visits every
member built from support strings, block by block of the family (one block
per witness set in the witness family, the whole universe otherwise), with
a double Gray sweep over row subsets and admissible column subsets on ints
scaled by the weights' common denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ..combinatorics import InputPair, MuParams, bits
from ..caps import EXHAUSTIVE_STEPS
from ..errors import ParameterRangeError, RectboundError
from ..rectangles import Rectangle, WeightMatrix, WitnessSet, string_masks
from .model import (
    FAMILY_AVOID_DISJOINT,
    KIND_SEARCH,
    KIND_SMOOTH,
    RectangleFamily,
    as_fraction,
    avoid_disjoint_family,
    error_rate,
    pow2,
    witness_family,
)

MODE_EXHAUSTIVE = "exhaustive"
MODE_ORACLE = "oracle"
MODE_AUTO = "auto"


@dataclass(frozen=True)
class DualCertificate:
    """A candidate dual solution over a rectangle family."""

    kind: str
    universe: int
    n: int
    k: int
    m: int
    alpha: Fraction | None
    beta: Fraction
    sigma: Fraction | None
    phi: WeightMatrix
    psi: WeightMatrix
    family: RectangleFamily
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (KIND_SEARCH, KIND_SMOOTH):
            raise ParameterRangeError(f"unknown certificate kind {self.kind!r}")
        if self.phi.n != self.universe or self.psi.n != self.universe:
            raise ParameterRangeError("weight maps must live on the certificate universe")

    def combined(self) -> WeightMatrix:
        return self.phi.combine(self.psi)

    def objective_value(self, eps=Fraction(0)) -> Fraction:
        if self.kind == KIND_SEARCH:
            if as_fraction(eps, "eps"):
                raise ParameterRangeError("search certificates take no error parameter")
            return self.sigma * self.phi.total() + self.psi.total()
        return (1 - error_rate(eps)) * self.phi.total() + self.psi.total()

    def support_classes(self) -> tuple[int, int]:
        """Intersection sizes phi and psi are allowed to touch."""
        if self.kind == KIND_SEARCH:
            return self.k, 2 * self.k
        return 1, 2


def build_search_dual_certificate(n: int, k: int, m: int, alpha, beta) -> DualCertificate:
    """Scaled one-meet mass against double-meet mass on the padded universe.

    The universe gains k coordinates and the sets gain k elements, so the
    cover pairs meet in exactly k places and the capped pairs in 2k.  alpha*k
    and beta*n must be integers; the resulting value is then exactly
    2^(beta*n) * 2^(-alpha*k).
    """
    if not 0 <= k <= m:
        raise ParameterRangeError(f"need 0 <= k <= m, got k={k}, m={m}")
    if 2 * m > n:
        raise ParameterRangeError(f"need 2m <= n so disjoint pairs exist, got m={m}, n={n}")
    alpha_f = as_fraction(alpha, "alpha")
    beta_f = as_fraction(beta, "beta")
    if alpha_f < 0:
        raise ParameterRangeError(f"alpha must be nonnegative, got {alpha_f}")
    lift = pow2(beta_f * n, "beta * n")
    shrink = pow2(-alpha_f * k, "alpha * k")
    degenerate = k == 0
    if degenerate:
        sigma = Fraction(1)
    else:
        sigma = 2 * shrink
        if sigma > 1:
            raise ParameterRangeError(
                f"alpha * k must be at least 1 so the cover threshold 2^(1 - alpha k) "
                f"is a probability, got sigma = {sigma}"
            )
    universe = n + k
    cover = MuParams(k, universe, m + k)
    capped = MuParams(2 * k, universe, m + k)
    phi = WeightMatrix.from_mu(cover, scale=lift)
    if capped.support_size == 0:
        psi = WeightMatrix(universe)
    else:
        psi = WeightMatrix.from_mu(capped, scale=-lift * shrink)
    return DualCertificate(
        kind=KIND_SEARCH,
        universe=universe,
        n=n,
        k=k,
        m=m,
        alpha=alpha_f,
        beta=beta_f,
        sigma=sigma,
        phi=phi,
        psi=psi,
        family=witness_family(k),
        degenerate=degenerate,
    )


def build_smooth_dual_ndisj(n: int, beta) -> DualCertificate:
    """Single-meet mass against 3/4 of the double-meet mass, sets of size n/4.

    Feasibility is claimed only over rectangles containing no disjoint pair,
    which is how the error rows are priced out of the way.  At n = 4 the
    double-meet distribution has empty support, so psi vanishes and the
    certificate is flagged degenerate.
    """
    if n <= 0 or n % 4 != 0:
        raise ParameterRangeError(f"universe size must be a positive multiple of 4, got {n}")
    beta_f = as_fraction(beta, "beta")
    lift = pow2(beta_f * n, "beta * n")
    m = n // 4
    cover = MuParams(1, n, m)
    capped = MuParams(2, n, m)
    phi = WeightMatrix.from_mu(cover, scale=lift)
    degenerate = capped.support_size == 0
    if degenerate:
        psi = WeightMatrix(n)
    else:
        psi = WeightMatrix.from_mu(capped, scale=-Fraction(3, 4) * lift)
    return DualCertificate(
        kind=KIND_SMOOTH,
        universe=n,
        n=n,
        k=1,
        m=m,
        alpha=None,
        beta=beta_f,
        sigma=None,
        phi=phi,
        psi=psi,
        family=avoid_disjoint_family(),
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class FeasibilityReport:
    max_weight: Fraction | float
    argmax: Rectangle
    witness: WitnessSet | None
    feasible: bool
    sign_ok: bool
    mode: str
    tol: Fraction | float


def _signs_ok(cert: DualCertificate) -> bool:
    phi_meet, psi_meet = cert.support_classes()
    for pair, w in cert.phi.items():
        if w < 0 or pair.intersection_size != phi_meet:
            return False
    for pair, w in cert.psi.items():
        if w > 0 or pair.intersection_size != psi_meet:
            return False
    if cert.kind == KIND_SEARCH and not 0 <= cert.sigma <= 1:
        return False
    return True


def _exhaustive_max(cert: DualCertificate) -> tuple[Fraction, Rectangle, WitnessSet | None]:
    """Max weight over every member rectangle built from support strings.

    One double Gray sweep per block of the family: the row subsets of the
    block's support strings in Gray order, and for each row set every
    nonempty subset of its admissible columns in Gray order, so each
    rectangle costs one addition.  Every column is admissible, except in the
    avoid-disjoint family, where a column disjoint from a member row is not.
    The sweep sums every subset and never picks columns by sign, so it
    checks the oracle rather than repeating it.

    Weights are swept as ints scaled by D, the lcm of their denominators,
    and the best sum is divided by D at the end.  The argmax is the first
    rectangle, in block, row-Gray and column-Gray order, that beats the
    running best, which starts at the empty rectangle's 0; the witness is
    its block's.
    """
    w = cert.combined()
    scale = lcm(*(v.denominator for v in w.weights.values()))
    cells = {pair: v.numerator * (scale // v.denominator) for pair, v in w.weights.items()}
    xs, ys = w.xs(), w.ys()
    avoid_disjoint = cert.family.kind == FAMILY_AVOID_DISJOINT
    best, best_rect, best_witness = 0, Rectangle.empty(cert.universe), None
    for witness, strings in cert.family.blocks(cert.universe):
        rows = [x for x in xs if strings >> x & 1]
        cols = [y for y in ys if strings >> y & 1]
        if not rows or not cols:
            continue
        what = f"exhaustive sweep steps ({len(rows)}x{len(cols)} support strings)"
        EXHAUSTIVE_STEPS.check(1 << (len(rows) + len(cols)), what, "use the oracle mode")
        grid = [[cells.get(InputPair(x, y), 0) for y in cols] for x in rows]
        # Bit j of disjoint[i] marks column j as inadmissible beside row i.
        disjoint = [
            sum(1 << j for j, y in enumerate(cols) if avoid_disjoint and not x & y) for x in rows
        ]
        col_sums = [0] * len(cols)
        row_set = 0
        for step in range(1, 1 << len(rows)):
            i = (step & -step).bit_length() - 1
            row_set ^= 1 << i
            sign = 1 if row_set >> i & 1 else -1
            col_sums = [old + sign * cell for old, cell in zip(col_sums, grid[i])]
            blocked = 0
            for r in string_masks(row_set):
                blocked |= disjoint[r]
            allowed = [j for j in range(len(cols)) if not blocked >> j & 1]
            total = 0
            col_set = 0
            for cstep in range(1, 1 << len(allowed)):
                p = (cstep & -cstep).bit_length() - 1
                col_set ^= 1 << p
                if col_set >> p & 1:
                    total += col_sums[allowed[p]]
                else:
                    total -= col_sums[allowed[p]]
                if total > best:
                    best = total
                    best_rect = Rectangle(
                        cert.universe,
                        sum(1 << rows[r] for r in string_masks(row_set)),
                        sum(1 << cols[allowed[q]] for q in string_masks(col_set)),
                    )
                    best_witness = witness
    return Fraction(best, scale), best_rect, best_witness


def verify_dual_certificate(
    cert: DualCertificate,
    mode: str = MODE_AUTO,
    tol=Fraction(0),
) -> FeasibilityReport:
    """Measure the heaviest family rectangle under phi + psi.

    The maximum over the family equals the maximum over rectangles built
    from support strings alone: dropping a zero-weight row or column never
    changes the weight, and every family here is closed under taking
    subrectangles.
    """
    if mode not in (MODE_EXHAUSTIVE, MODE_ORACLE, MODE_AUTO):
        raise ParameterRangeError(f"unknown verification mode {mode!r}")
    sign_ok = _signs_ok(cert)
    w = cert.combined()
    if mode == MODE_AUTO:
        small = EXHAUSTIVE_STEPS.fits(1 << (len(w.xs()) + len(w.ys())))
        mode = MODE_EXHAUSTIVE if small else MODE_ORACLE
    if mode == MODE_EXHAUSTIVE:
        max_weight, argmax, witness = _exhaustive_max(cert)
    else:
        argmax, max_weight, witness = cert.family.separation_oracle(w)
    feasible = sign_ok and max_weight <= 1 + tol
    return FeasibilityReport(
        max_weight=max_weight,
        argmax=argmax,
        witness=witness,
        feasible=feasible,
        sign_ok=sign_ok,
        mode=mode,
        tol=tol,
    )


def _frac_str(value: Fraction | None) -> str | None:
    return None if value is None else str(Fraction(value))


def _matrix_records(w: WeightMatrix) -> list[list[str]]:
    rows = [
        [bits(pair.x, w.n), bits(pair.y, w.n), str(Fraction(value))]
        for pair, value in w.items()
    ]
    rows.sort(key=lambda rec: (rec[0], rec[1]))
    return rows


def _matrix_from_records(n: int, records) -> WeightMatrix:
    return WeightMatrix.from_entries(n, [(x, y, Fraction(v)) for x, y, v in records])


def certificate_to_json(cert: DualCertificate) -> dict:
    """A plain JSON-ready dict; rationals travel as exact 'p/q' strings."""
    fam = {"kind": cert.family.kind}
    if cert.family.k is not None:
        fam["k"] = cert.family.k
    return {
        "kind": cert.kind,
        "universe": cert.universe,
        "n": cert.n,
        "k": cert.k,
        "m": cert.m,
        "alpha": _frac_str(cert.alpha),
        "beta": _frac_str(cert.beta),
        "sigma": _frac_str(cert.sigma),
        "degenerate": cert.degenerate,
        "family": fam,
        "phi": _matrix_records(cert.phi),
        "psi": _matrix_records(cert.psi),
    }


def certificate_from_json(data) -> DualCertificate:
    """Inverse of `certificate_to_json`; accepts the dict or its json text.

    The text is outside input: bad JSON, a missing key, or a value or record
    of the wrong shape raises ParameterRangeError, and the package's own
    refusals pass through as they are.
    """
    try:
        if isinstance(data, str):
            data = json.loads(data)
        fam = data["family"]
        family = RectangleFamily(fam["kind"], fam.get("k"))
        universe = int(data["universe"])
        return DualCertificate(
            kind=data["kind"],
            universe=universe,
            n=int(data["n"]),
            k=int(data["k"]),
            m=int(data["m"]),
            alpha=None if data["alpha"] is None else Fraction(data["alpha"]),
            beta=Fraction(data["beta"]),
            sigma=None if data["sigma"] is None else Fraction(data["sigma"]),
            phi=_matrix_from_records(universe, data["phi"]),
            psi=_matrix_from_records(universe, data["psi"]),
            family=family,
            degenerate=bool(data["degenerate"]),
        )
    except RectboundError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ParameterRangeError(f"malformed certificate ({type(exc).__name__}: {exc})") from exc
