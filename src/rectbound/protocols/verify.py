"""Self-verification wrappers for coordinate-claiming protocols.

A search output is cheap to audit: for each claimed coordinate both parties
can state whether their own set contains it, and a claim survives only when
both say yes.  The wrapper appends that audit to the conversation and
downgrades failed claims to rejections, so the wrapped protocol never
returns a wrong nonzero claim, only correct ones or explicit give-ups.

Two audit budgets:

* explicit: every claim slot gets a membership bit from each side, then each
  side closes with one agreement bit: 2k + 2 extra (2*choose + 2 for the
  choose task).  Failed slots reject individually, the rest survive.
* two_bit: each side sends only its aggregate agreement bit: 2 extra.  Any
  failure rejects the whole output since nobody said which slot broke.

Zero claims (block declared disjoint) are not auditable this way; their
slots carry vacuous passes and the claim stays as made.
"""

from __future__ import annotations

from ..errors import KindMismatchError, ParameterRangeError
from .core import ProgramProtocol, RandomizedProtocol
from .tasks import KIND_SEARCH_CHOOSE, KIND_SEARCH_KFOLD, TaskSpec, block

VERIFY_EXPLICIT = "explicit"
VERIFY_TWO_BIT = "two_bit"


def _claim_slots(task: TaskSpec) -> int:
    return task.choose if task.kind == KIND_SEARCH_CHOOSE else task.k


def _slot_claims(task: TaskSpec, output) -> list[tuple[int, int] | None]:
    """One (block, coordinate) entry per audit slot; None marks a vacuous slot."""
    slots: list[tuple[int, int] | None] = [None] * _claim_slots(task)
    if output is None or output == 0:
        return slots
    if task.kind == KIND_SEARCH_KFOLD:
        for j, entry in enumerate(output):
            if isinstance(entry, int) and entry >= 1:
                slots[j] = (j, entry)
    else:
        for pos, claim in enumerate(output[: len(slots)]):
            slots[pos] = claim
    return slots


def _membership(task: TaskSpec, held: int, claim: tuple[int, int] | None) -> int:
    if claim is None:
        return 1
    j, c = claim
    if not 0 <= j < task.k or not 1 <= c <= task.n:
        return 0
    return (block(held, j, task.n) >> (c - 1)) & 1


def make_verified(
    base: ProgramProtocol | RandomizedProtocol,
    task: TaskSpec,
    mode: str = VERIFY_EXPLICIT,
) -> ProgramProtocol | RandomizedProtocol:
    """Wrap `base` so every surviving nonzero claim is genuinely shared."""
    if task.kind not in (KIND_SEARCH_KFOLD, KIND_SEARCH_CHOOSE):
        raise KindMismatchError(f"only coordinate claims can be audited, got {task.kind!r}")
    if mode not in (VERIFY_EXPLICIT, VERIFY_TWO_BIT):
        raise ParameterRangeError(f"unknown verification mode {mode!r}")
    if isinstance(base, RandomizedProtocol):
        return RandomizedProtocol(
            tuple((prob, make_verified(proto, task, mode)) for prob, proto in base.branches)
        )
    if base.n_alice != task.input_bits or base.n_bob != task.input_bits:
        raise ParameterRangeError(
            f"base protocol inputs are {base.n_alice}x{base.n_bob} bits, "
            f"task needs {task.input_bits}"
        )
    slots = _claim_slots(task)
    extra = 2 * slots + 2 if mode == VERIFY_EXPLICIT else 2

    def run_fn(x: int, y: int):
        res = base.run(x, y)
        bits, length = res.bits, res.length
        claims = _slot_claims(task, res.output)
        alice_bits = [_membership(task, x, claim) for claim in claims]
        bob_bits = [_membership(task, y, claim) for claim in claims]
        if mode == VERIFY_EXPLICIT:
            for bit in alice_bits + bob_bits:
                bits |= bit << length
                length += 1
        a_ok = 1 if all(alice_bits) else 0
        b_ok = 1 if all(bob_bits) else 0
        bits |= (a_ok | b_ok << 1) << length
        length += 2

        output = res.output
        if output is not None and output != 0:
            if mode == VERIFY_EXPLICIT:
                ok = [a and b for a, b in zip(alice_bits, bob_bits)]
                if task.kind == KIND_SEARCH_KFOLD:
                    output = tuple(
                        entry if claims[j] is None or ok[j] else None
                        for j, entry in enumerate(output)
                    )
                elif not all(ok):
                    output = None
            elif not (a_ok and b_ok):
                output = None
        return output, bits, length

    return ProgramProtocol(
        n_alice=base.n_alice,
        n_bob=base.n_bob,
        run_fn=run_fn,
        worst_cost=base.worst_cost + extra,
        label=f"verified[{mode}]",
    )
