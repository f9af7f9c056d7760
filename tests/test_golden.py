"""Byte-identity guard for optimisations that must not change any result.

Each case pins a SHA-1 of ``repr((expression, P, T, multiplier,
product_count, raise_mults))`` from ``run_invariant`` on one worker.  The
cases come from the families that ``perfbench/reference.py`` checks by
value (spheres, Tangherlini and Kerr), so a digest that moves means the
canonical string or a paper statistic changed, not merely that a value is
wrong.  S^6 I_2 and Tangherlini D=6 I_c are the benchmark's
``sphere6_I2`` and ``kerr6_Ic_a0`` workloads.

The first four digests were computed with every GCD in the lex ring over
all of the env's generators, before the GCD (now ``poly.cofactors``) ran
over only the generators its inputs mention; they hold unchanged after it.
The S^6 I_2 and Tangherlini D=6 I_c digests were computed while Riemann
was still built as the mixed R^a_bcd and then lowered, before
``riemann_lowered`` built the all-lower tensor directly at its independent
components; all six hold unchanged after it, and after ``curvinv.poly``
replaced sympy's polynomial rings and heuristic GCD.  They also hold after
``curvinv.poly`` packed each monomial's exponent tuple into one int and
ran the GCD in place over the packed fields.

The Kerr D=4 I_2 and Kerr D=5 I_c digests, both at symbolic a, were
computed while ``RawSum`` still grouped products by their multiplied-out
denominator and folded the groups with one GCD each; all eight hold after
it grouped them over each env's coprime basis of denominators instead.

The Kerr D=7 I_c digest at a=1 was computed while the metrics still used
the polar angles themselves as coordinates, with sin/cos generator pairs
and sine reduction in ``Expr.make``; all nine hold with the cosines
x = cos(angle) as the coordinates.  It is the one case whose metric has
nested polar angles (theta and the sphere block's chi2, chi3) with the
rotation on.

The Kerr D=4 I_c digest at a=1 was computed while ``RawSum.value`` still
proved every basis element left in a sum's denominator coprime to the
numerator by a GCD, before elements certified irreducible were proved so
by the exact division that failed; all ten hold after it.  It is the
rotation-on case whose fields all sit over rho**2 and Delta, the
elements that certificate covers.

The S^8 I_2 (value -112) and Kerr D=8 I_b at a=1 digests pin two large-D
cases.  They were computed while ``RawSum`` still multiplied each
product's numerators out before any cancellation and ``Expr.diff``, ``*``
and ``/`` cancelled by a GCD; all twelve hold after products were
cancelled over the coprime basis before they are multiplied.
"""

import hashlib
from fractions import Fraction

import pytest

from curvinv.cli import PRESETS
from curvinv.pipeline import metric_with_substitutions, run_invariant

CASES = {
    "S^3 I_b": (
        "sphere", 3, (), "I_b", "ccec079f00e44223d9328490315fe92d7359bf68"
    ),
    "S^4 I_2": (
        "sphere", 4, (), "I_2", "794c3fb045b2916559e1872a15f41311b1b2ec3e"
    ),
    "Tangherlini D=5 I_c": (
        "kerr", 5, (("a", Fraction(0)),), "I_c", "a811ab9ea61e6fa6f6ac37a84f0a2c1ef7e99b0e"
    ),
    "Kerr D=4 I_b a=1": (
        "kerr", 4, (("a", Fraction(1)),), "I_b", "5b965fae40d60b9849cb094822edf7f4a372dfed"
    ),
    "S^6 I_2": (
        "sphere", 6, (), "I_2", "f9a97eaa33138cf227836e1dac863336a5f6919d"
    ),
    "Tangherlini D=6 I_c": (
        "kerr", 6, (("a", Fraction(0)),), "I_c", "7b8b9fca58e870995098f766048ee5f482612c64"
    ),
    "Kerr D=4 I_2": (
        "kerr", 4, (), "I_2", "18753834541bdb84a95758529a49700e674343c0"
    ),
    "Kerr D=5 I_c": (
        "kerr", 5, (), "I_c", "a4b7f7878b526e3ef203e6e1eec3f99bc86a6c2b"
    ),
    "Kerr D=7 I_c a=1": (
        "kerr", 7, (("a", Fraction(1)),), "I_c", "cb3fbd2c98c861e0a64b9cbdf18d9340ecb5b475"
    ),
    "Kerr D=4 I_c a=1": (
        "kerr", 4, (("a", Fraction(1)),), "I_c", "2d4459990498447027b7ecd43027bfc952cab805"
    ),
    "S^8 I_2": (
        "sphere", 8, (), "I_2", "63e9e5c1b02159b2f12c84af5b183bb6aac009a6"
    ),
    "Kerr D=8 I_b a=1": (
        "kerr", 8, (("a", Fraction(1)),), "I_b", "8fa20d0cf21bbc9ac3bb337c0f9b0c756f4d8f2c"
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_output_is_byte_identical(case):
    metric, dim, substitutions, preset, digest = CASES[case]
    report = run_invariant(
        metric_with_substitutions(metric, dim, substitutions), PRESETS[preset]
    )
    state = (
        report.expression,
        report.P,
        report.T,
        report.multiplier,
        report.product_count,
        report.raise_mults,
    )
    assert hashlib.sha1(repr(state).encode()).hexdigest() == digest
