"""Per-layer work counts computed outside the program from recorded calls.

The tracer records the arguments and result of `e_invariant`,
`is_A_derivable`, `bch_product` and `goodman_check`; the counts below are
derived from those with nilgrade's own public functions after the traced
pass, so computing them costs no traced time.
"""

from __future__ import annotations

from functools import lru_cache

import nilgrade as ng


@lru_cache(maxsize=None)
def _scan(c: int, e) -> tuple[int, int]:
    """(candidates scanned, conditions built) by an e-invariant scan ending at e."""
    scanned = ng.candidate_values(c)
    scanned = scanned[: scanned.index(e) + 1]
    return len(scanned), sum(len(ng.r_condition_set(c, r)) for r in scanned)


@lru_cache(maxsize=None)
def _words(c: int) -> int:
    return len(ng.bch_table(c).nonzero)


def layer_counts(calls) -> dict[str, float]:
    """Count metrics over (span name, request, args, result) records."""
    candidates = conditions = feasible = attempted = 0
    words = bits = samples = 0
    for name, _request, args, result in calls:
        if name == "derivability.e_invariant":
            c = ng.lower_central_series(args[0]).nilpotency_class
            scanned, built = _scan(c, result.e)
            candidates += scanned
            conditions += built
            attempted += scanned
            feasible += 1
        elif name == "derivability.is_A_derivable":
            conditions += len(args[1])
            attempted += 1
            feasible += result is not None
        elif name == "bch.bch_product":
            words += _words(args[1].nilpotency_class)
            bits += sum(v.numerator.bit_length() for v in result)
        elif name == "goodman.goodman_check":
            samples += len(result.samples)
    return {
        "derivability.candidates_scanned": candidates,
        "derivability.conditions": conditions,
        "derivability.feasible_ratio": feasible / attempted if attempted else 0.0,
        "bch.words_evaluated": words,
        "bch.result_bits": bits,
        "goodman.samples": samples,
    }
