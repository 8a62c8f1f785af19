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
slots carry vacuous passes and the claim stays as made.  An output of the
wrong shape fails every slot (`tasks.claims`).
"""

from __future__ import annotations

from ..errors import KindMismatchError, ParameterRangeError
from .core import ProgramProtocol, RandomizedProtocol
from .tasks import KIND_SEARCH_CHOOSE, KIND_SEARCH_KFOLD, TaskSpec, check_width, claims, marks

VERIFY_EXPLICIT = "explicit"
VERIFY_TWO_BIT = "two_bit"


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
    check_width(task, base)
    # A give-up's claims are every slot, all empty.
    extra = 2 * len(claims(task, None)) + 2 if mode == VERIFY_EXPLICIT else 2

    def run_fn(x: int, y: int):
        res = base.run(x, y)
        bits, length = res.bits, res.length
        slot_claims = claims(task, res.output)
        alice_bits = [1 if claim is None else marks(task, x, claim) for claim in slot_claims]
        bob_bits = [1 if claim is None else marks(task, y, claim) for claim in slot_claims]
        if mode == VERIFY_EXPLICIT:
            for bit in alice_bits + bob_bits:
                bits |= bit << length
                length += 1
        a_ok = 1 if all(alice_bits) else 0
        b_ok = 1 if all(bob_bits) else 0
        bits |= (a_ok | b_ok << 1) << length
        length += 2

        output = res.output
        if not (a_ok and b_ok):
            if mode == VERIFY_EXPLICIT and task.kind == KIND_SEARCH_KFOLD:
                # Each failed slot rejects alone; an output of the wrong
                # shape fails every slot, so only a k-tuple is indexed.
                passed = [a and b for a, b in zip(alice_bits, bob_bits)]
                output = tuple(output[j] if ok else None for j, ok in enumerate(passed))
            else:
                output = None
        return output, bits, length

    return ProgramProtocol(
        n_alice=base.n_alice,
        n_bob=base.n_bob,
        run_fn=run_fn,
        worst_cost=base.worst_cost + extra,
        label=f"verified[{mode}]",
    )
