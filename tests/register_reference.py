"""The N-level register realization as full containers, kept as a test reference.

couple_ancilla_reference builds what games.couple_ancilla built before it
returned run-length views: N labels, N amplitude slots, an N-entry register
observable and an N-entry grouping dict.  branch_reference groups those N
slots back into run-length leaves the way branching.branch did, one groupby
over the labels.
"""

from itertools import groupby

from branchlab.branching import BranchTree, _fresh_leaf
from branchlab.games import Observable, PureState, QuantumGame


def couple_ancilla_reference(game: QuantumGame, n: int, N: int) -> tuple[PureState, Observable, dict[str, float]]:
    if len(game.state.basis_labels) != 2:
        raise ValueError("ancilla coupling needs a two-component state")
    if not (1 <= n < N):
        raise ValueError(f"need 1 <= n < N, got n={n}, N={N}")
    a1, a2 = game.state.amplitudes
    x1 = game.observable.eigenvalue(game.state.basis_labels[0])
    x2 = game.observable.eigenvalue(game.state.basis_labels[1])
    labels = tuple(f"y{i}" for i in range(1, N + 1))
    amps = (a1.div_sqrt(n),) * n + (a2.div_sqrt(N - n),) * (N - n)
    joint = PureState(labels, amps)
    register = Observable(
        name=f"{game.observable.name}_via_{N}_level_register",
        eigenvalues={label: float(i) for i, label in enumerate(labels, start=1)},
    )
    grouping = {label: (x1 if i <= n else x2) for i, label in enumerate(labels, start=1)}
    return joint, register, grouping


def branch_reference(game: QuantumGame, n: int, N: int, fine_dim: int = 1, grain: float = 1e-9) -> BranchTree:
    joint, _, grouping = couple_ancilla_reference(game, n, N)
    runs = groupby(zip(map(grouping.__getitem__, joint.basis_labels), joint.amplitudes))
    leaves = tuple(
        _fresh_leaf(x, (), amp.abs2, fine_dim, multiplicity=len(list(run))) for (x, amp), run in runs
    )
    return BranchTree(leaves=leaves, grain=grain, fine_dim=fine_dim)
