"""The exact message of public library refusals, one case per check, each
reached by calling the library directly."""

import pytest

from gkmcalc import FormalGroupLaw, LaurentSeries, TruncatedSeries, build_fgl
from gkmcalc.fgl import multiplicative_fgl
from gkmcalc.gkm import formality_prediction
from gkmcalc.scalars import Theory

import helpers

ZZ, QQ = helpers.ordinary(), helpers.rational()


def var(theory, nvars=1, i=0):
    return TruncatedSeries.variable(theory, nvars, i)


def one_variable_law():
    """Read the series of a law built in one variable."""
    return FormalGroupLaw(ZZ, lambda: var(ZZ), lambda ell: {}).series


REFUSALS = [
    ("series-variable-out-of-range", lambda: var(ZZ, 2, 2), ValueError, "variable index 2 out of range"),
    ("series-add-across-theories", lambda: var(ZZ) + var(QQ), ValueError,
     "series belong to different theories (or truncations)"),
    ("series-mul-across-theories", lambda: var(ZZ) * var(QQ), ValueError,
     "series belong to different theories (or truncations)"),
    ("series-add-across-variable-counts", lambda: var(ZZ) + var(ZZ, 2), ValueError,
     "series have different variable counts 1 != 2"),
    ("series-mul-across-variable-counts", lambda: var(ZZ, 2) * var(ZZ), ValueError,
     "series have different variable counts 2 != 1"),
    ("series-negative-power", lambda: var(ZZ) ** -1, ValueError,
     "negative powers of a truncated series are not defined"),
    ("substitute-wrong-count", lambda: var(ZZ, 2).substitute([var(ZZ)]), ValueError,
     "expected 2 substitution series"),
    ("substitute-other-theory", lambda: var(ZZ).substitute([var(QQ)]), ValueError,
     "substitution series belongs to a different theory"),
    ("substitute-mixed-variable-counts", lambda: var(ZZ, 2).substitute([var(ZZ), var(ZZ, 2)]), ValueError,
     "substitution series disagree on variable count"),
    ("laurent-from-two-variables", lambda: LaurentSeries.from_truncated(var(ZZ, 2)), ValueError,
     "only one-variable series convert to Laurent series"),
    ("laurent-add-across-theories", lambda: LaurentSeries.zero(ZZ, 1) + LaurentSeries.zero(QQ, 1), ValueError,
     "Laurent series belong to different theories"),
    ("laurent-divide-by-zero", lambda: LaurentSeries.from_truncated(var(QQ)).divide(LaurentSeries.zero(QQ, 9)),
     ZeroDivisionError, "division of Laurent series by zero"),
    ("fgl-unknown-kind", lambda: build_fgl(Theory("unknown", 8)), ValueError,
     "no formal group law for theory kind 'unknown'"),
    ("fgl-multiplicative-without-unit", lambda: multiplicative_fgl(ZZ), ValueError,
     "multiplicative law needs a degree -2 periodicity unit"),
    ("fgl-sum-with-constant-term", lambda: build_fgl(ZZ).sum(TruncatedSeries.one(ZZ, 1), var(ZZ)), ValueError,
     "formal sums need zero constant terms"),
    ("fgl-law-not-in-two-variables", one_variable_law, ValueError,
     "a formal group law is a series in two variables"),
    ("theory-rationalized-mod-p", lambda: helpers.modp(3).rationalized(), ValueError,
     "cannot extend ordinary-mod-p scalars to the rationals"),
    ("formality-odd-betti-degree", lambda: formality_prediction(QQ, 1, [(1, 1)], 2), ValueError,
     "betti degrees must be even and nonnegative"),
]


@pytest.mark.parametrize(
    "call,error,message", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS]
)
def test_library_refusal_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
