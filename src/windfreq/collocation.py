"""Gauss pseudospectral building blocks.

Legendre-Gauss nodes/weights, the affine time map, barycentric Lagrange
interpolation over the augmented basis {-1} U nodes, the differentiation
matrix used to collocate dynamics at the nodes, and the quadrature-based
terminal-state estimate.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CollocationGrid",
    "legendre_gauss",
    "time_map",
    "inverse_time_map",
    "terminal_state",
    "interpolate",
    "lagrange_coefficients",
    "quadrature",
    "collocation_matrix",
    "solve_lti_collocation",
    "make_grid",
]


def _legendre(order, x):
    """P_order(x) and P'_order(x) by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for n in range(2, order + 1):
        p_prev, p = p, ((2 * n - 1) * x * p - (n - 1) * p_prev) / n
    return p, order * (x * p - p_prev) / (x * x - 1.0)


def legendre_gauss(order: int):
    """Nodes and weights of the ``order``-point Legendre-Gauss rule on (-1, 1).

    Nodes are the roots of P_order, found by vectorized Newton steps and
    returned ascending; weights are 2 / ((1 - tau^2) P'_order(tau)^2). Exact
    for polynomials up to degree 2*order - 1.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    # Chebyshev-like initial guess, accurate to O(order^-2)
    x = np.cos(np.pi * (np.arange(order, dtype=np.float64) + 0.75) / (order + 0.5))
    for _ in range(100):
        p, pp = _legendre(order, x)
        dx = p / pp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-14:
            break
    _, pp = _legendre(order, x)  # the derivative at the converged roots
    weights = 2.0 / ((1.0 - x * x) * pp * pp)
    idx = np.argsort(x)
    return np.ascontiguousarray(x[idx]), np.ascontiguousarray(weights[idx])


def time_map(tau, t_f: float):
    """Map tau in [-1, 1] to physical time t in [0, t_f]."""
    return (t_f * np.asarray(tau) + t_f) / 2.0


def inverse_time_map(t, t_f: float):
    """Map physical time t in [0, t_f] to tau in [-1, 1]."""
    return (2.0 * np.asarray(t) - t_f) / t_f


def _barycentric_weights(points: np.ndarray) -> np.ndarray:
    """Barycentric weights 1 / prod_(j != i) (x_i - x_j), scaled to max |w| = 1.

    Row i of ``diff`` holds x_i - x_j for j != i in ascending j; the product
    is accumulated in log space to survive large orders.
    """
    n = len(points)
    diff = (points[:, None] - points)[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    lam = np.prod(np.sign(diff), axis=1) * np.exp(-np.sum(np.log(np.abs(diff)), axis=1))
    return lam / np.max(np.abs(lam))


@dataclass(frozen=True)
class CollocationGrid:
    """Immutable Legendre-Gauss collocation grid on a horizon [0, t_f].

    ``basis`` is {-1} followed by the interior Gauss nodes; states are
    interpolated over the full basis, controls over the nodes only.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    t_f: float
    basis: np.ndarray = field(repr=False)
    basis_bary: np.ndarray = field(repr=False)
    node_bary: np.ndarray = field(repr=False)
    diff_matrix: np.ndarray = field(repr=False)

    @property
    def half_span(self) -> float:
        return self.t_f / 2.0


def make_grid(order: int, t_f: float = 30.0) -> CollocationGrid:
    if order < 1:
        raise ValueError(f"collocation order must be >= 1, got {order}")
    if not t_f > 0:
        raise ValueError(f"horizon must be positive, got {t_f}")
    nodes, weights = legendre_gauss(order)
    basis = np.concatenate(([-1.0], nodes))
    basis_bary = _barycentric_weights(basis)
    node_bary = _barycentric_weights(nodes)
    diff = _diff_matrix(basis, basis_bary, order)
    return CollocationGrid(
        order=order,
        nodes=nodes,
        weights=weights,
        t_f=float(t_f),
        basis=basis,
        basis_bary=basis_bary,
        node_bary=node_bary,
        diff_matrix=diff,
    )


def _diff_matrix(basis: np.ndarray, bary: np.ndarray, order: int) -> np.ndarray:
    """Rows: derivative of the basis interpolant at each interior node.

    Row r belongs to node r, basis point r + 1: off the diagonal it holds
    (bary_i / bary_(r+1)) / (x_(r+1) - x_i), and its diagonal cell makes the
    row sum zero (the derivative of a constant).
    """
    rows = np.arange(order)
    gap = basis[1:, None] - basis
    gap[rows, rows + 1] = 1.0
    d = (bary / bary[1:, None]) / gap
    d[rows, rows + 1] = 0.0
    d[rows, rows + 1] = -np.sum(d, axis=1)
    return d


def terminal_state(x_0, dynamics_at_nodes, grid: CollocationGrid):
    """Gauss-quadrature estimate of the state at t_f.

    ``dynamics_at_nodes`` holds f(X(tau_k), U(tau_k)) stacked along axis 0.
    """
    f = np.asarray(dynamics_at_nodes, dtype=float)
    x_0 = np.asarray(x_0, dtype=float)
    return x_0 + grid.half_span * np.tensordot(grid.weights, f, axes=(0, 0))


def _basis(grid: CollocationGrid, kind: str):
    """(points, barycentric weights) of the state or the control basis."""
    if kind == "state":
        return grid.basis, grid.basis_bary
    if kind == "control":
        return grid.nodes, grid.node_bary
    raise ValueError(f"unknown interpolation kind {kind!r}")


def _bary_matrix(points: np.ndarray, bary: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """(len(taus), len(points)) matrix W with p(taus) = W @ values.

    Rows are the normalized barycentric weights bary / (tau - point). A tau
    within 1e-14 of a basis point gets the unit row of the first such point,
    which reproduces the data exactly where the formula would divide by zero.
    """
    w = taus[:, None] - points  # the one (len(taus), len(points)) buffer
    hit = np.abs(w) < 1e-14
    rows = np.nonzero(hit.any(axis=1))[0]
    if rows.size:
        w[hit] = 1.0
    np.divide(bary, w, out=w)
    if rows.size:
        w[rows] = 0.0
        w[rows, np.argmax(hit[rows], axis=1)] = 1.0
    w /= np.sum(w, axis=1, keepdims=True)
    return w


def interpolate(grid: CollocationGrid, values, t, kind: str = "state"):
    """Barycentric Lagrange evaluation of node data at physical time(s) t.

    ``kind='state'`` expects values over the K+1 basis points, ``'control'``
    over the K interior nodes, along axis 0 (trailing axes are carried
    through). t outside [0, t_f] is rejected.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < -1e-12) or np.any(t_arr > grid.t_f + 1e-12):
        raise ValueError(f"time {t} outside horizon [0, {grid.t_f}]")
    points, bary = _basis(grid, kind)
    taus = inverse_time_map(t_arr, grid.t_f)
    out = _bary_matrix(points, bary, taus) @ np.asarray(values, dtype=float)
    if np.ndim(t) == 0:
        return out[0]
    return out


def lagrange_coefficients(grid: CollocationGrid, tau, kind: str = "state") -> np.ndarray:
    """Row vector c with p(tau) = c . values for the chosen basis.

    An array of taus gives one row per tau.
    """
    points, bary = _basis(grid, kind)
    coeff = _bary_matrix(points, bary, np.atleast_1d(np.asarray(tau, dtype=float)))
    return coeff[0] if np.ndim(tau) == 0 else coeff


def quadrature(grid: CollocationGrid, values_at_nodes) -> float:
    """Integral over [0, t_f] of the node samples by the Gauss rule."""
    return grid.half_span * float(np.dot(grid.weights, np.asarray(values_at_nodes)))


def collocation_matrix(a_matrix, grid: CollocationGrid) -> np.ndarray:
    """The (K n) x (K n) collocation block of x' = A x over the interior nodes.

    Unknowns are the node states flattened node-major; row (k, s) reads
    sum_i D[k, i] X_i[s] - h A[s, :] X_k for basis points i >= 1, with
    h = t_f / 2. The initial state and the forcing go on the right.
    """
    a_matrix = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    n = a_matrix.shape[0]
    return (np.kron(grid.diff_matrix[:, 1:], np.eye(n))
            - grid.half_span * np.kron(np.eye(grid.order), a_matrix))


def solve_lti_collocation(a_matrix, x_0, grid: CollocationGrid, forcing=None):
    """Collocate x' = A x + g on the grid and solve for the node states.

    ``forcing`` g is either constant (n values) or given per node (K x n).
    Returns (node_states, terminal) where node_states has shape (K, n) and
    terminal is the quadrature estimate of x(t_f). The trajectory optimizer
    condenses its LP with the same collocation block.
    """
    a_matrix = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    n = a_matrix.shape[0]
    k_ord = grid.order
    x_0 = np.asarray(x_0, dtype=float).reshape(n)
    g = np.zeros(n) if forcing is None else np.asarray(forcing, dtype=float)
    g = g.reshape(n) if g.size == n else g.reshape(k_ord, n)
    rhs = grid.half_span * np.broadcast_to(g, (k_ord, n)) \
        - np.outer(grid.diff_matrix[:, 0], x_0)
    states = np.linalg.solve(collocation_matrix(a_matrix, grid), rhs.ravel())
    states = states.reshape(k_ord, n)
    f_nodes = states @ a_matrix.T + g
    terminal = terminal_state(x_0, f_nodes, grid)
    return states, terminal
