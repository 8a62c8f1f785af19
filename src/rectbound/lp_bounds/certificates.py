"""Hand-built dual solutions for the rectangle LPs, and their verification.

A certificate pairs a nonnegative weight map `phi` on the cover pairs with a
nonpositive map `psi` on capped pairs.  It is feasible for its rectangle
family when every member rectangle carries combined weight at most 1, the
unit cost of a column.  Its value, the lower bound it witnesses, is the
right-hand sides paired against the duals:

* search:  sigma * sum(phi) + sum(psi)
* smooth:  (1 - eps) * sum(phi) + sum(psi)

Verification never assumes feasibility; it measures the worst rectangle and
reports the verdict, either by a literal sweep of every member over the
support strings or through the gray-code maximization oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from ..combinatorics import InputPair, MuParams, bits
from ..caps import EXHAUSTIVE_STEPS
from ..errors import ParameterRangeError
from ..rectangles import Rectangle, WeightMatrix, WitnessSet, witness_set, witness_sets
from .model import (
    FAMILY_AVOID_DISJOINT,
    FAMILY_WITNESS,
    KIND_SEARCH,
    KIND_SMOOTH,
    RectangleFamily,
    _as_fraction,
    _pow2,
    avoid_disjoint_family,
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
        eps_f = _as_fraction(eps, "eps")
        if self.kind == KIND_SEARCH:
            if eps_f:
                raise ParameterRangeError("search certificates take no error parameter")
            return self.sigma * self.phi.total() + self.psi.total()
        return (1 - eps_f) * self.phi.total() + self.psi.total()

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
    alpha_f = _as_fraction(alpha, "alpha")
    beta_f = _as_fraction(beta, "beta")
    if alpha_f < 0:
        raise ParameterRangeError(f"alpha must be nonnegative, got {alpha_f}")
    lift = _pow2(beta_f * n, "beta * n")
    shrink = _pow2(-alpha_f * k, "alpha * k")
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
    beta_f = _as_fraction(beta, "beta")
    lift = _pow2(beta_f * n, "beta * n")
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

    def describe(self) -> str:
        verdict = "feasible" if self.feasible else "infeasible"
        return (
            f"{verdict} ({self.mode}): max rectangle weight {self.max_weight}, "
            f"signs {'ok' if self.sign_ok else 'violated'}"
        )


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


def _gray_sweep_all(nx: int, ny: int, cell, allowed_cols=None):
    """Max over every nonempty rectangle of an nx by ny grid of weights.

    Row and column subsets advance in gray order, so each of the
    (2^nx - 1)(2^ny - 1) rectangles costs O(1) beyond the per-row-set
    bookkeeping.  `allowed_cols(row_set)` may restrict the columns a row set
    can use.  Returns (best value, row mask, column mask over ALL columns).
    """
    best = Fraction(0)
    best_rect = (0, 0)
    col_sums = [Fraction(0)] * ny
    row_set = 0
    for step in range(1, 1 << nx):
        i = (step & -step).bit_length() - 1
        row_set ^= 1 << i
        if row_set >> i & 1:
            for j in range(ny):
                col_sums[j] += cell(i, j)
        else:
            for j in range(ny):
                col_sums[j] -= cell(i, j)
        cols = list(range(ny)) if allowed_cols is None else allowed_cols(row_set)
        total = Fraction(0)
        col_set = 0
        for cstep in range(1, 1 << len(cols)):
            jpos = (cstep & -cstep).bit_length() - 1
            col_set ^= 1 << jpos
            if col_set >> jpos & 1:
                total += col_sums[cols[jpos]]
            else:
                total -= col_sums[cols[jpos]]
            if total > best:
                best = total
                best_rect = (
                    row_set,
                    sum(1 << cols[p] for p in range(len(cols)) if col_set >> p & 1),
                )
    return best, best_rect


def _exhaustive_max(cert: DualCertificate):
    w = cert.combined()
    xs = w.xs()
    ys = w.ys()
    if not xs or not ys:
        return Fraction(0), Rectangle.empty(cert.universe), None

    def run_block(bxs, bys, allowed_cols=None):
        what = f"exhaustive sweep steps ({len(bxs)}x{len(bys)} support strings)"
        EXHAUSTIVE_STEPS.check(1 << (len(bxs) + len(bys)), what, "use the oracle mode")
        cell_values = {
            (i, j): w.weights.get(InputPair(x, y), Fraction(0))
            for i, x in enumerate(bxs)
            for j, y in enumerate(bys)
        }
        val, (rmask, cmask) = _gray_sweep_all(
            len(bxs), len(bys), lambda i, j: cell_values[(i, j)], allowed_cols
        )
        rect = Rectangle(
            cert.universe,
            sum(1 << x for i, x in enumerate(bxs) if rmask >> i & 1),
            sum(1 << y for j, y in enumerate(bys) if cmask >> j & 1),
        )
        return val, rect

    best = Fraction(0)
    best_rect = Rectangle.empty(cert.universe)
    best_witness = None
    fam = cert.family
    if fam.kind == FAMILY_WITNESS:
        for witness in witness_sets(cert.universe, fam.k or 0):
            mask = witness.mask
            bxs = [s for s in xs if s & mask == mask]
            bys = [s for s in ys if s & mask == mask]
            if not bxs or not bys:
                continue
            val, rect = run_block(bxs, bys)
            if val > best:
                best, best_rect = val, rect
                best_witness = witness
    elif fam.kind == FAMILY_AVOID_DISJOINT:
        disjoint = [
            sum(1 << j for j, y in enumerate(ys) if x & y == 0) for x in xs
        ]

        def allowed_cols(row_set):
            bad = 0
            for i, dmask in enumerate(disjoint):
                if row_set >> i & 1:
                    bad |= dmask
            return [j for j in range(len(ys)) if not bad >> j & 1]

        val, rect = run_block(xs, ys, allowed_cols)
        if val > best:
            best, best_rect = val, rect
    else:
        val, rect = run_block(xs, ys)
        if val > best:
            best, best_rect = val, rect
    return best, best_rect, best_witness


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
        if cert.family.kind == FAMILY_WITNESS and not argmax.is_empty and witness is None:
            witness = witness_set(argmax, cert.family.k or 0)
    else:
        argmax, max_weight, witness = cert.family.separation_oracle(w)
        if max_weight < 0:
            max_weight, argmax, witness = Fraction(0), Rectangle.empty(cert.universe), None
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
    """Inverse of `certificate_to_json`; accepts the dict or its json text."""
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
