"""Run-level output check of the Monte Carlo workloads.

Each simulate call is checked on its own in workloads.py.  Over a whole run
the error counts must also agree with the recorded reference rates, every
requested detector must see errors (so the agreement is not vacuous), ML may
not do worse than MRDD on the same draws, and discards stay within the limit.
"""

from __future__ import annotations

from workloads import MAX_DISCARD_FRACTION, McWorkload

# Two-sided binomial test level per detector and run, fixed before any
# timing run.  With four workloads, up to four detectors and about a hundred
# runs, a correct program fails it with probability below 1e-3.
BINOMIAL_LEVEL = 1e-6


def check_mc_run(w: McWorkload, errors: dict, trials: int, discards: int) -> list:
    """Problems found in the summed outcome of a run; empty when it passes."""
    from scipy.stats import binomtest

    problems = []
    if trials < 1:
        return ["no trial completed"]
    for det, rate in w.reference_rates:
        count = errors.get(det, 0)
        if count == 0:
            problems.append(f"{det}: no errors in {trials} trials, the check would be vacuous")
            continue
        p_value = binomtest(count, trials, rate).pvalue
        if p_value < BINOMIAL_LEVEL:
            problems.append(f"{det}: {count} errors in {trials} trials against reference rate "
                            f"{rate:.6g} (two-sided p = {p_value:.3g})")
    if w.ordered and errors.get("ml", 0) > errors.get("mrdd", 0):
        problems.append(f"ML made {errors['ml']} errors, more than MRDD's {errors['mrdd']}")
    if discards > MAX_DISCARD_FRACTION * trials:
        problems.append(f"{discards} of {trials} trials discarded")
    return problems
