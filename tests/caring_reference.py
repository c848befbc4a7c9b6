"""Reference for ``caring_measure``: care keyed by the parts of the tree.

``keyed_care`` is each strategy's care as it was built before it became a
measure over outcomes: a mass per leaf index for the weight-based
strategies, per (leaf, cell) for the count-based one and per outcome for the
eigenvalue-based one, each with the outcome it falls on.  ``keyed_by_outcome``
sums those masses per outcome from ``Fraction(0)`` in key order, as the view
every valuation read did.  A measure's masses must equal that sum in value,
type and float bits.
"""

from fractions import Fraction

from branchlab import Born, Egalitarian, EigenvalueWeighted, SquaredWeightRenormalized


def keyed_care(strategy, tree):
    """(masses, outcome_of), both keyed by leaf, (leaf, cell) or outcome."""
    if isinstance(strategy, Born):
        masses = {i: leaf.weight * leaf.multiplicity for i, leaf in enumerate(tree.leaves)}
        return masses, {i: leaf.outcome for i, leaf in enumerate(tree.leaves)}
    if isinstance(strategy, Egalitarian):
        occupied = {
            (i, j): leaf.multiplicity
            for i, leaf in enumerate(tree.leaves)
            for j, cell in enumerate(leaf.cells)
            if float(cell) > strategy.tau
        }
        share = Fraction(1, sum(occupied.values()))
        masses = {key: count * share for key, count in occupied.items()}
        return masses, {key: tree.leaves[key[0]].outcome for key in occupied}
    if isinstance(strategy, SquaredWeightRenormalized):
        squares = {
            i: leaf.weight * leaf.weight * leaf.multiplicity for i, leaf in enumerate(tree.leaves)
        }
        total = sum(squares.values(), Fraction(0))
        masses = {i: sq / total for i, sq in squares.items()}
        return masses, {i: leaf.outcome for i, leaf in enumerate(tree.leaves)}
    if isinstance(strategy, EigenvalueWeighted):
        magnitudes = {leaf.outcome: Fraction(abs(leaf.outcome)) for leaf in tree.leaves}
        total = sum(magnitudes.values(), Fraction(0))
        return {x: m / total for x, m in magnitudes.items()}, {x: x for x in magnitudes}
    raise TypeError(f"no keyed care for {strategy!r}")


def keyed_by_outcome(strategy, tree):
    """The keyed care summed per outcome, in key order."""
    masses, outcome_of = keyed_care(strategy, tree)
    agg = {}
    for key, mass in masses.items():
        outcome = outcome_of[key]
        agg[outcome] = agg.get(outcome, Fraction(0)) + mass
    return agg
