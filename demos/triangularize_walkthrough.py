"""Walk through the Schur-style triangularization of a dense 3x3 matrix.

The construction is one loop over the sorted eigenvalues: take one exact
eigenvector of the block still left, make it the next column of V, and
deflate that block in closed form at the eigenvector's last nonzero index.
At the end A * V == V * U holds entry for entry, no tolerances anywhere.
"""

from jordanform import ExactMatrix, inverse, spectrum, trigonalize
from jordanform.cli import pretty_matrix

A = ExactMatrix.from_rows([[2, 1, 1], [-4, 5, 4], [1, 0, 2]])

print("A:")
print(pretty_matrix(A))
print()

lam = spectrum(A).entries[0].eigenvalue
print(f"canonically smallest eigenvalue: {lam}")
print()

decomposition = trigonalize(A)
print("V (accumulated basis changes):")
print(pretty_matrix(decomposition.V))
print()
print("U = V^-1 A V (upper triangular, eigenvalues on the diagonal):")
print(pretty_matrix(decomposition.M))
print()

assert A * decomposition.V == decomposition.V * decomposition.M
assert decomposition.M.is_upper_triangular()
print("checked exactly: A*V == V*U and U is upper triangular")

v_inv = inverse(decomposition.V)
assert v_inv * A * decomposition.V == decomposition.M
print("checked exactly: V^-1 A V == U")
