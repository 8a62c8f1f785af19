"""The three workloads' job lists and their seed-generated inputs.

Every job is either a CLI invocation, run in process through
`rectbound.cli.main(argv)`, or the one library job, the lifting sweep, which
has no CLI command.  The seed only reaches the program through the generated
inputs: in `cg-n3` a fixed random n=3 truth table with its rows and columns
renamed by seeded permutations, written to a file for `--table`, and in
`enum-protocols` the `--seed` values of the Monte Carlo protocol run and the
scan.  `exact-rational` takes no seeded input (see build_jobs).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cg-n3", "exact-rational", "enum-protocols")

# The references under perfbench/refs were recorded at this workload seed.
REF_SEED = 0

LIFTING_SWEEP = "lifting-sweep"


@dataclass(frozen=True)
class Job:
    name: str
    # CLI arguments, or None for the library job (the lifting sweep).
    argv: tuple[str, ...] | None
    # True when the job's output depends on the workload seed, so it can be
    # compared with the reference only at REF_SEED.
    varies: bool = False


def _cli(name: str, line: str, *extra: str, varies: bool = False) -> Job:
    return Job(name, tuple(line.split()) + extra, varies)


def random_table_text(rng: random.Random, n: int) -> str:
    """A uniformly random n-bit truth table in the `--table` file format.

    Constant tables are drawn again: their cover LPs are degenerate and say
    nothing about the solver.
    """
    side = 1 << n
    while True:
        rows = ["".join(rng.choice("01") for _ in range(side)) for _ in range(side)]
        ones = sum(row.count("1") for row in rows)
        if 0 < ones < side * side:
            return f"{n}\n" + "\n".join(rows) + "\n"


def relabeled_table_text(text: str, rng: random.Random) -> str:
    """The same function with both players' inputs renamed at random.

    Every cover LP here is invariant under renaming the rows and the
    columns, so the optimum stays that of the base table while the solver
    sees different inputs and takes a different path, at nearly the same
    cost (CG iterations within 4%).  A fresh random n=3 table per seed
    would instead change the amount of work by up to 3x (3 s to 9 s of CG),
    more than any bound could absorb.
    """
    head, *rows = text.splitlines()
    side = len(rows)
    row_perm = rng.sample(range(side), side)
    col_perm = rng.sample(range(side), side)
    grid = ["".join(rows[i][j] for j in col_perm) for i in row_perm]
    return head + "\n" + "\n".join(grid) + "\n"


def _base_table(workload: str, n: int) -> str:
    return random_table_text(random.Random(f"perfbench:{workload}:base"), n)


def build_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's job list for `seed`; table inputs are written to workdir."""
    if workload == "cg-n3":
        table = workdir / "random-n3.txt"
        relabel = random.Random(f"perfbench:{workload}:{seed}")
        table.write_text(relabeled_table_text(_base_table(workload, 3), relabel))
        smooth = "bound --lp smooth --solver cg --eps 1/4"
        return [
            *(_cli(f"smooth-{f}-n3", f"{smooth} --family {f} --n 3") for f in ("IP", "DISJ", "NDISJ", "EQ")),
            _cli("search-n3-k1-sigma-1", "bound --lp search --n 3 --k 1 --solver cg --sigma 1"),
            _cli("search-n3-k1-sigma-1_2", "bound --lp search --n 3 --k 1 --solver cg --sigma 1/2"),
            _cli("smooth-random-n3", smooth, "--table", str(table)),
        ]
    if workload == "exact-rational":
        # Not relabeled per seed: the exact simplex's work on this one table
        # ranges over 5x (0.65 s to 3.2 s) with the labeling, which would
        # swamp every other change to wall_s.  No input here uses the seed.
        table = workdir / "random-n2.txt"
        table.write_text(_base_table(workload, 2))
        search = "certify --kind search --k 2 --m 2 --alpha 1"
        return [
            _cli("smooth-DISJ-n2-exact", "bound --lp smooth --family DISJ --n 2 --solver exact --eps 1/4"),
            _cli("smooth-IP-n2-both", "bound --lp smooth --family IP --n 2 --solver both --eps 1/4"),
            _cli("search-n2-k1-both", "bound --lp search --n 2 --k 1 --solver both"),
            _cli("smooth-random-n2-both", "bound --lp smooth --solver both --eps 1/4", "--table", str(table)),
            _cli("certify-search-n4-exhaustive", f"{search} --n 4 --beta 1/4 --verify-mode exhaustive"),
            _cli("certify-search-n5", f"{search} --n 5 --beta 1/5"),
            _cli("certify-search-n6", "certify --kind search --n 6 --k 1 --m 2 --alpha 1 --beta 1/6"),
            # The only CLI path into the avoid-disjoint oracle; tiny at n=4.
            _cli("certify-smooth-n4-oracle", "certify --kind smooth --n 4 --beta 1/4 --verify-mode oracle"),
        ]
    if workload == "enum-protocols":
        rng = random.Random(f"perfbench:{workload}:{seed}")
        mc_seed = rng.randrange(1, 2**31)
        scan_seed = rng.randrange(1, 2**31)
        ndisj = "protocol --proto trivial-ndisj-kfold --n 8"
        search = "protocol --proto trivial-search-kfold"
        return [
            Job(LIFTING_SWEEP, None),
            _cli("halving-ndisj-n8-s2", f"{ndisj} --k 1 --compose halving --s 2"),
            _cli("search-n4-k2-explicit", f"{search} --n 4 --k 2 --verify-wrap explicit"),
            _cli(
                "halving-ndisj-n8-k2-mc",
                f"{ndisj} --k 2 --compose halving --s 1 --samples 20000 --seed {mc_seed}",
                varies=True,
            ),
            _cli("permute-search-n2-k2", f"{search} --n 2 --k 2 --compose permute --choose 1"),
            _cli("scan-n12", f"scan --n 12 --samples 10000 --seed {scan_seed}", varies=True),
        ]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def lifting_sweep() -> str:
    """check_lemma4 for I-IV on every valid_mu_params(8, 10**6) triple.

    Identities out of range at a triple are skipped before the call, so every
    check_lemma4 call is a real check.  Returns the reports as JSON records
    [identity, k, n, m, pairs_checked, lhs_support, max_abs_diff].
    """
    from rectbound import combinatorics
    from rectbound.errors import ParameterRangeError

    records = []
    for p in combinatorics.valid_mu_params(8, 10**6):
        for identity in combinatorics.LIFTING_IDENTITIES:
            try:
                sides = combinatorics.identity_sides(identity, p)
            except ParameterRangeError:
                continue
            if sides.lhs.is_empty or sides.rhs.is_empty:
                continue
            rep = combinatorics.check_lemma4(identity, p)
            lhs_support = rep.lhs_params.support_size
            records.append([identity, p.k, p.n, p.m, rep.pairs_checked, lhs_support, str(rep.max_abs_diff)])
    return json.dumps(records) + "\n"
