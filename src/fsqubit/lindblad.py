"""Master-equation evolution and steady states.

The master equation is integrated on the vectorized density matrix.  A
constant generator is stepped by `steps`, the one place the program steps
a state through time with a matrix exponential: the propagator over one
grid step is computed once and applied repeatedly, which is exact up to
roundoff and untroubled by GHz-scale rotating-frame diagonals.  A stack of
generators steps every ensemble member at once.  A stack of models is one
RotatingFrameModel with a leading member axis (see `driven`); a jump
amplitude of 0 means that member has no such jump.  Every function here
that takes a model takes a stack too, and treats it in one broadcast pass,
each member bit-equal to its own model.

`expm` is the program's one matrix exponential, bit-equal to
`scipy.linalg.expm` on every slice.  The GHz-scale one-photon detunings give
generators of large norm, so scaling and squaring needs many squarings per
slice; `expm` keeps scipy's own Pade step per slice (imported from the
private `scipy.linalg._matfuncs_expm`) and does the squarings of a whole
stack as stacked matmuls, which run the same BLAS gemm per slice as scipy's
2-D ones.  `scipy.linalg` is imported inside `expm`, not with this module:
it costs about 0.3 s of start-up, and a run that never exponentiates (the
Landau-Zener sweep, the CPT scan, a dry run) never loads it.  `steps`
builds the propagators of every gap of a grid that needs one in one `expm`
call per chunk.  The bit-equality is pinned by
tests/test_lindblad.py (`test_expm_bit_equal_to_scipy` and
`test_steps_bit_equal_to_per_gap_loop`), under one BLAS thread and, in CI,
under the default threading.

A model's state is stepped by `model_steps` on the block of its Liouvillian
that holds the initial state, never on the whole d^2 x d^2 generator.  The
block comes from the model and the initial state (`invariant_block`): join
two levels when the Hamiltonian couples them or the initial state holds a
coherence between them; the block is every pair (a, b) of levels in one
connected component, so it holds all populations, the coherences inside each
coupled component, and a cross-component coherence such as the up/down one a
Ramsey dark segment carries.  The generator maps that block into itself
because a jump (from, to, c) is one pair of levels by construction: its
collapse operator C = c|to><from| moves through C rho C^dagger only the
`from` population onto the `to` population, and C^dagger C is diagonal, so
the dissipator keeps each pair of Hamiltonian components apart and the
populations among themselves, and the Hamiltonian mixes a coherence only
within its own pair of components.  Propagating the block is therefore
exact, and every entry outside it stays exactly zero (the weak-symmetry
block reduction of a Lindblad generator; Buca & Prosen, New J. Phys. 14,
073007 (2012); Albert & Jiang, Phys. Rev. A 89, 022118 (2014)).
`liouvillian` builds the generator straight on the block's pairs, and
`model_block` sets the block up for `model_steps` and for the callers that
step and read the block's states without scattering them back (the Rabi
ensemble and the coherence scans of `sequences`), so every propagator the
program builds from a model is the exponential of a block generator.  When
the block is the whole space its positions are all d^2 of them.

Trace is never renormalized; its drift is a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .driven import RotatingFrameModel


class StateError(ValueError):
    """A density matrix that is not a state: not Hermitian, not of unit trace
    or not positive."""


class DegenerateSteadyStateError(Exception):
    """The Liouvillian null space is not one-dimensional; add a small
    dephasing to break the degeneracy."""


@dataclass(frozen=True)
class DensityMatrix:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def pure(cls, dim: int, index: int) -> "DensityMatrix":
        m = np.zeros((dim, dim), dtype=complex)
        m[index, index] = 1.0
        return cls(m)

    @classmethod
    def from_state(cls, psi: Sequence[complex]) -> "DensityMatrix":
        v = np.asarray(psi, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def population(self, index: int) -> float:
        return float(self.matrix[index, index].real)

    def populations(self) -> np.ndarray:
        """The diagonal, (d,), or (M, d) for the steady states of a stack."""
        return np.diagonal(self.matrix, axis1=-2, axis2=-1).real.copy()

    def hermiticity_defect(self) -> float:
        return float(np.linalg.norm(self.matrix - self.matrix.conj().T))

    def min_eigenvalue(self) -> float:
        h = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(h)[0])

    def validate(self) -> None:
        if self.hermiticity_defect() > 1e-9:
            raise StateError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(self.matrix).real - 1.0) > 1e-9:
            raise StateError("density matrix trace differs from 1")
        if self.min_eigenvalue() < -1e-9:
            raise StateError("density matrix has a negative eigenvalue")


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled populations."""

    times: np.ndarray
    populations: dict[str, np.ndarray]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        pops = {}
        for k, v in self.populations.items():
            v = np.asarray(v, dtype=float)
            v.setflags(write=False)
            pops[k] = v
        object.__setattr__(self, "populations", pops)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0


def liouvillian(model: RotatingFrameModel, index=None) -> np.ndarray:
    """Vectorized generator L with drho_vec/dt = L rho_vec (row-major vec).

    L[(a,b),(a',b')] = -i (H[a,a'] delta_bb' - delta_aa' H[b',b]), plus for
    each jump (from, to, c) the rate c*c from the `from` onto the `to`
    population and -c*c/2 on a pair for each of its two levels that is
    `from`.  Each jump's terms are added in jump order, so the whole
    generator is bit-equal to the Kronecker-product build.  A jump of
    amplitude 0 is no jump: it adds nothing, signed zeros included.

    A model gives its (k, k) generator, a stack of M models (a leading
    member axis) the (M, k, k) stack of its members' generators, built in
    one broadcast pass; each member is bit-equal to its own build, whatever
    jumps it lacks.

    With `index`, only the rows and columns at those vec positions (the pair
    (a, b) sits at a * dim + b) are built, bit-equal to slicing the whole
    generator.  `index` must be sorted and hold every population, as every
    block from `invariant_block` does.
    """
    d = model.dim
    k = d * d if index is None else len(index)
    left, right, same_a, same_b, touches, population = _pairs(
        d, None if index is None else np.asarray(index, dtype=np.intp).tobytes())
    # every member's generator, flattened over its entries
    h = model.hamiltonian.reshape(-1, d * d)
    lv = h.take(left, 1) * same_b
    lv -= same_a * h.take(right, 1)
    lv *= -1j
    if model.jumps:
        frm, to, amp = zip(*model.jumps)
        frm, to = np.array(frm, dtype=np.intp), np.array(to, dtype=np.intp)
        # amplitudes by jump slot and member
        amp = np.broadcast_to(np.array(np.broadcast_arrays(*amp)).reshape(len(frm), -1),
                              (len(frm), len(h)))
        rate, present = amp * amp, amp != 0
        # each slot's losses, the padding -0.0 - 0.0j where a member lacks
        # the jump, which adds nothing, signed zeros included
        loss = np.where(present[..., None], -0.5 * rate[..., None] * touches[to, frm][:, None],
                        complex(-0.0, -0.0))
        # H's diagonal is real, so each diagonal entry's real part is the
        # sum of its member's losses, added one jump at a time; a member
        # with jumps adds 0.0 to the imaginary part, one without adds nothing
        lv[:, ::k + 1] += reduce(np.add, loss)
        # a gain lands between two populations, where the Hamiltonian part
        # is zero; add.at sums repeated entries of a member in jump order
        slot, member = present.nonzero()
        gain = (rate[slot, member] * (to != frm)[slot]).astype(complex)
        np.add.at(lv, (member, population[to[slot]] * k + population[frm[slot]]), gain)
    lv = lv.reshape(-1, k, k)
    return lv if model.hamiltonian.ndim == 3 else lv[0]


@lru_cache(maxsize=16)
def _pairs(d: int, index: bytes | None) -> tuple[np.ndarray, ...]:
    """The parts of a generator on the vec positions `index` (the bytes of
    an intp array; None for all d * d) that depend on no model, read-only.

    For the flattened entries (p, q), p = (a, b) and q = (a', b'): the flat
    positions of H[a, a'] and of H[b', b], and the complex masks of
    a == a' and of b == b'.  Then touches[to, from, p], how many of p's two
    levels a jump from `from` to `to` drains (0.0, 1.0 or 2.0, and 0.0 on a
    self-jump's own population), and the position of each population.
    """
    pos = np.arange(d * d) if index is None else np.frombuffer(index, dtype=np.intp)
    a, b = np.divmod(pos, d)
    levels = np.arange(d)
    population = pos.searchsorted(levels * (d + 1))
    touches = np.tile(np.add(a == levels[:, None], b == levels[:, None], dtype=float), (d, 1, 1))
    touches[levels, levels, population] = 0.0
    parts = ((a[:, None] * d + a).ravel(), (b * d + b[:, None]).ravel(),
             (a[:, None] == a).astype(complex).ravel(), (b[:, None] == b).astype(complex).ravel(),
             touches, population)
    for x in parts:
        x.setflags(write=False)
    return parts


def invariant_block(model: RotatingFrameModel, rho0) -> np.ndarray:
    """Vec positions of a block of the model's generator that holds the
    density matrix `rho0` and that it maps into itself, in row-major order;
    `np.arange(d * d)` when that is the whole space.

    The block is every pair (a, b) inside one connected component of the
    graph that joins two levels when the Hamiltonian couples them or `rho0`
    holds a coherence between them.  A stack's members all start from
    `rho0`, and a stack joins the levels that any member couples.
    """
    d = model.dim
    linked = (rho0 != 0) | (model.hamiltonian != 0).reshape(-1, d, d).any(axis=0)
    linked.reshape(-1)[::d + 1] = True
    # k squarings join levels up to 2**k links apart; d - 1 links suffice
    for _ in range(max(d - 2, 0).bit_length()):
        linked = linked @ linked
    return linked.ravel().nonzero()[0]


# bytes of propagators `steps` builds in one `expm` call
_STEP_BYTES = 4 << 20


def steps(generator: np.ndarray, vec0: np.ndarray, times):
    """Yield the state of dv/dt = generator @ v at every time, `vec0` first.

    Each gap between consecutive times is stepped with expm(generator * gap);
    the propagator is reused while the next gap matches the one it was built
    for within a relative 1e-9, so a uniform grid costs one matrix
    exponential.  The propagators of the gaps that need one are built
    together, one `expm` call per chunk of about `_STEP_BYTES` (4 MB) of
    them, so a long non-uniform grid over a large stack holds a bounded
    amount; each is bit-equal to scipy's expm of its own generator * gap.
    A stacked generator (..., n, n) steps states (..., n) of every member at
    once, one matmul per time, each member bit-equal to stepping it alone.
    Yielding instead of collecting lets a caller reduce the members per time
    without ever holding the (members, times, n) stack.
    """
    generator = np.asarray(generator)
    times = np.asarray(times, dtype=float)
    vec = np.asarray(vec0)
    yield vec
    gaps = np.diff(times)
    built, built_for = [], None
    for k, gap in enumerate(gaps.tolist()):
        if built_for is None or abs(gap - built_for) > 1e-9 * built_for:
            built.append(k)
            built_for = gap
    ends = built[1:] + [len(gaps)]
    chunk = max(1, _STEP_BYTES // max(generator.nbytes, 1))
    for first in range(0, len(built), chunk):
        starts = built[first:first + chunk]
        scaled = generator * gaps[starts].reshape(-1, *(1,) * generator.ndim)
        for step, start, stop in zip(expm(scaled), starts, ends[first:first + chunk]):
            for _ in range(start, stop):
                vec = (step @ vec[..., None])[..., 0]
                yield vec


def expm(a) -> np.ndarray:
    """scipy.linalg.expm of every (n, n) slice of `a`, bit for bit.

    scipy (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009))
    runs a stack one slice at a time: a bandwidth check, a Pade step and s
    squarings, each a 2-D matmul.  Here each generic slice goes through the
    same Pade step (`pick_pade_structure` and `pade_UV_calc` from scipy's
    private `scipy.linalg._matfuncs_expm`, the functions `scipy.linalg.expm`
    calls), then the slices are sorted by their squaring count s and each
    round squares every slice that still needs one in a single stacked
    matmul, which runs the same BLAS gemm per slice as scipy's 2-D one.
    Triangular (and diagonal) slices, for which scipy has its own branch,
    go to `scipy.linalg.expm` itself, as does input that is not float64 or
    complex128 or whose slices are smaller than 2 x 2.
    `test_expm_bit_equal_to_scipy` pins the bit-equality.
    """
    from scipy.linalg import expm as scipy_expm
    from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

    a = np.asarray(a)
    if (a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 2 or a.size == 0
            or a.dtype not in (np.float64, np.complex128)):
        return scipy_expm(a)
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    rows, cols = np.tril_indices(n, -1)
    triangular = ~flat[:, rows, cols].any(axis=1) | ~flat[:, cols, rows].any(axis=1)
    out = np.empty_like(flat)
    if triangular.any():
        out[triangular] = scipy_expm(flat[triangular])
    generic = (~triangular).nonzero()[0]
    if len(generic):
        pade = np.empty((5, n, n), dtype=a.dtype)
        powers = np.empty((len(generic), n, n), dtype=a.dtype)
        squarings = np.empty(len(generic), dtype=np.intp)
        for k, member in enumerate(generic):
            pade[0] = flat[member]
            m, squarings[k] = pick_pade_structure(pade)
            info = pade_UV_calc(pade, m) if m >= 0 else m
            if info != 0:
                raise RuntimeError(f"expm: the Pade step of slice {member} failed (code {info})")
            powers[k] = pade[0]
        order = np.argsort(-squarings, kind="stable")
        powers, squarings = powers[order], squarings[order]
        # the slices that need more than r squarings lead the sorted stack
        for r in range(squarings[0]):
            needing = np.count_nonzero(squarings > r)
            powers[:needing] = powers[:needing] @ powers[:needing]
        out[generic[order]] = powers
    return out.reshape(a.shape)


def model_block(model: RotatingFrameModel, rho0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block of the model's generator that holds the density matrix
    `rho0`, ready for `steps`: (index, generator, vec0).

    `index` is the block's vec positions from `invariant_block`, `generator`
    the model's Liouvillian on them (a stack for a stacked model) and `vec0`
    the entries of `rho0` there, broadcast over a stack's members.  The pair
    (a, b) of levels sits at a * dim + b, so a population or a coherence is
    found in the block by `index.searchsorted`.
    """
    index = invariant_block(model, rho0)
    lv = liouvillian(model, index)
    return index, lv, np.broadcast_to(rho0.reshape(-1), (*lv.shape[:-2], rho0.size))[..., index]


def model_steps(model: RotatingFrameModel, rho0, times):
    """Yield the vectorized state of the master equation at every time, `rho0` first.

    Every member of a stacked model starts from the density matrix `rho0`
    and steps at once (see `steps`).  Only the invariant block that holds
    `rho0` (`model_block`) is stepped, and each state is scattered back into
    the whole vec, where every entry outside the block is exactly zero.
    """
    index, lv, vec0 = model_block(model, rho0)
    for vec in steps(lv, vec0, times):
        full = np.zeros((*vec.shape[:-1], rho0.size), dtype=vec.dtype)
        full[..., index] = vec
        yield full


def steady_state(model: RotatingFrameModel) -> DensityMatrix:
    """Null-space steady state of the vectorized Liouvillian.

    A stacked model gives the (M, d, d) steady states of its members from
    one batched SVD.  Raises DegenerateSteadyStateError, naming a stack's
    first such member, when the null space is not unique at numerical
    resolution.
    """
    lv = liouvillian(model)
    _, svals, vh = np.linalg.svd(lv)
    smax = np.where(svals[..., 0] > 0, svals[..., 0], 1.0)
    tiny = np.maximum(1e-12 * smax, np.finfo(float).eps * smax * lv.shape[-1])
    _reject(svals[..., -2] < tiny, "Liouvillian null space is degenerate; add a small dephasing")
    rho = vh[..., -1, :].conj().reshape(*lv.shape[:-2], model.dim, model.dim)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    _reject(np.abs(tr) < 1e-14, "null vector is traceless; no physical steady state")
    return DensityMatrix(rho / tr[..., None, None])


def _reject(bad: np.ndarray, message: str) -> None:
    """Raise DegenerateSteadyStateError when `bad` holds; a stack's message
    names its first bad member."""
    if bad.any():
        raise DegenerateSteadyStateError(
            message if bad.ndim == 0 else f"member {bad.nonzero()[0][0]}: {message}")
