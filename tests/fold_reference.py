"""Reference for the exact sums: the left folds from ``Fraction(0)`` they replace.

``fold_sum``, ``fold_dot`` and ``fold_sums`` add term by term from
``Fraction(0)``, reducing by a gcd at every step, as every exact sum in the
package was taken before ``exact._exact_sum`` and ``exact._exact_dot`` summed
on one common denominator.  ``fold_price`` is ``strategies._price`` as it
priced through that fold.  ``use_folds`` patches them in wherever branchlab
binds the helpers, so any output can be compared with the fold's.
"""

from fractions import Fraction
from functools import reduce
from operator import add

import branchlab
from branchlab import branching, confirmation, exact, games, strategies, verifier


def fold_sum(terms):
    return reduce(add, terms, Fraction(0))


def fold_dot(xs, ys):
    return reduce(lambda total, xy: total + xy[0] * xy[1], zip(xs, ys), Fraction(0))


def fold_sums(pairs):
    totals = {}
    for key, term in pairs:
        totals[key] = totals.get(key, Fraction(0)) + term
    return totals


def fold_price(care, utility):
    total = Fraction(0)
    for outcome, mass in care.masses.items():
        total = total + mass * utility(outcome)
    return total


FOLDS = {"_exact_sum": fold_sum, "_exact_dot": fold_dot, "_exact_sums": fold_sums, "_price": fold_price}


def use_folds(monkeypatch):
    """Price and sum through the folds in every branchlab module that binds a helper."""
    for module in (branchlab, branching, confirmation, exact, games, strategies, verifier):
        for name, fold in FOLDS.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fold)
