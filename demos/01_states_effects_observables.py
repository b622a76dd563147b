"""States, effects, observables: the Born rule and classical processing.

Walks through the basic value types: build a qubit state and some effects,
compute outcome probabilities, then coarse-grain and randomize observables
and certify that two observables admit a joint one.
"""

import numpy as np

from qcond import (
    Effect,
    Observable,
    OutcomeMap,
    State,
    StochasticMatrix,
    born_probability,
    certify_coexistence,
    outcome_probabilities,
    part,
    post_process,
)

# A qubit in a slightly tilted mixed state.
rho = State(np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex))
print("state:\n", rho.matrix.real)

# Effects are operators between 0 and I. The Born rule gives probabilities.
ground = Effect(np.diag([1.0, 0.0]))
print("P(ground) =", born_probability(rho, ground))
print("P(I) =", born_probability(rho, Effect.identity(2)))

# An observable is a labeled family of effects summing to I.
basis = Observable(("up", "down"), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
print("basis distribution:", outcome_probabilities(rho, basis))

# Post-processing feeds outcomes through a row-stochastic kernel: here a
# noisy readout that flips the outcome 10% of the time.
noisy = post_process(
    basis,
    StochasticMatrix(("up", "down"), ("click0", "click1"), np.array([[0.9, 0.1], [0.1, 0.9]])),
)
print("noisy readout distribution:", outcome_probabilities(rho, noisy))

# A part merges outcomes along a surjection; merging everything gives {I}.
merged = part(noisy, OutcomeMap({"click0": "any", "click1": "any"}, ("any",)))
print("merged observable effects:", [e.matrix.real.tolist() for e in merged.effects])

# Two observables coexist when some observable on the product of their
# outcome sets (one label tuple per axis) has them as marginals. For
# commuting projective observables the product grid is such a witness.
other = Observable(("plus", "minus"), (np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])))
grid = Observable(
    (basis.outcomes, basis.outcomes),
    tuple(tuple(a.matrix @ b.matrix for b in basis.effects) for a in basis.effects),
)
print("grid marginals reproduce the basis observable:",
      certify_coexistence(basis, basis, grid))
print("(the diagonal grid is a certificate for the basis with itself;",
      "a certificate pairing 'basis' with 'other' would need a different grid)")
