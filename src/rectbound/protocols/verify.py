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
from .tasks import KIND_SEARCH_CHOOSE, KIND_SEARCH_KFOLD, TaskSpec, check_width, claims, position

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
    explicit = mode == VERIFY_EXPLICIT
    salvage = explicit and task.kind == KIND_SEARCH_KFOLD
    # A give-up's claims are every slot, all empty.
    slots = len(claims(task, None))
    passes = (1 << slots) - 1
    extra = 2 * slots + 2 if explicit else 2

    def run_fn(x: int, y: int):
        output, bits, length = base.run(x, y)
        # Bit i of each word is that side's membership bit for slot i; an
        # empty slot passes vacuously and a malformed claim fails on both sides.
        alice = bob = 0
        for i, claim in enumerate(claims(task, output)):
            if claim is None:
                alice |= 1 << i
                bob |= 1 << i
            else:
                pos = position(task, claim)
                if pos >= 0:
                    alice |= ((x >> pos) & 1) << i
                    bob |= ((y >> pos) & 1) << i
        if explicit:
            bits |= (alice | bob << slots) << length
            length += 2 * slots
        a_ok = int(alice == passes)
        b_ok = int(bob == passes)
        bits |= (a_ok | b_ok << 1) << length
        length += 2

        if not (a_ok and b_ok):
            if salvage:
                # Each failed slot rejects alone; an output of the wrong
                # shape fails every slot, so only a k-tuple is indexed.
                passed = alice & bob
                output = tuple(output[j] if (passed >> j) & 1 else None for j in range(slots))
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
