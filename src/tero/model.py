"""TeRo model core: complex embeddings rotated per time step.

Entities live in C^k as (real, imaginary) array pairs. Each time step tau
carries a phase vector theta; multiplying an entity embedding by
e^{i theta_j} rotates every coordinate without changing its modulus. A fact
(s, r, o, tau) is scored by how well the relation translates the rotated
subject onto the conjugate of the rotated object:

    score = || rot(s, theta_tau) + r - conj(rot(o, theta_tau)) ||_p

Lower is more plausible. Relations on interval datasets come in dual
begin/end variants stored as two row blocks of one table: slot r is the
beginning of relation r, slot r + n_relations its end.

Link prediction needs every entity rotated to the query's step.
``score_step`` fuses that rotation with the scoring: it rotates the entity
table BLOCK_ROWS rows at a time into one small buffer and scores every
query of the step against each block while it is in cache, so no rotated
copy of the table is ever built.

Parameter arrays are float32, matching the checkpoint wire format, so
save/load round-trips are lossless; scoring upcasts to float64 so ranking
comparisons are precision-robust. Models built with ``dtype=np.float64``
(for finite-difference work) behave identically but save with rounding.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import Quadruple, TimeBinning, endpoint_terms

CHECKPOINT_MAGIC = b"TERO"
CHECKPOINT_VERSION = 1
# rows per block of the fused rotate-and-score kernel and of the training
# step. At k=500 a block is 512 KB of rotated rows plus a 512 KB difference
# buffer, which stay in L2 together: on a Xeon with 2 MB of L2 per core, 32
# and 64 rows were the fastest of 16-256 and 256 rows ~25% slower per
# query. The training step (ICEWS14 shape, batch 512) was also fastest at
# 64 of 16-256, 4% ahead of 32 and 7-11% ahead of the rest.
BLOCK_ROWS = 64


@dataclass
class ModelParams:
    """All trainable arrays plus their Adagrad accumulators.

    ``rel_re``/``rel_im`` have ``2 * n_relations`` rows when ``dual`` (begin
    block then end block), else ``n_relations``. Accumulators are float64
    regardless of the parameter dtype.
    """

    ent_re: np.ndarray  # (n_entities, k)
    ent_im: np.ndarray
    rel_re: np.ndarray  # (n_slots, k)
    rel_im: np.ndarray
    phase: np.ndarray  # (n_tau, k), radians
    n_relations: int
    dual: bool
    norm_p: int = 1
    acc: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.acc:
            # float64 accumulators: squared-gradient sums underflow float32
            self.acc = {name: np.zeros(arr.shape, dtype=np.float64)
                        for name, arr in self.arrays().items()}

    def arrays(self) -> dict[str, np.ndarray]:
        return {"ent_re": self.ent_re, "ent_im": self.ent_im,
                "rel_re": self.rel_re, "rel_im": self.rel_im, "phase": self.phase}

    @property
    def n_entities(self) -> int:
        return self.ent_re.shape[0]

    @property
    def n_tau(self) -> int:
        return self.phase.shape[0]

    @property
    def k(self) -> int:
        return self.ent_re.shape[1]

    @property
    def n_slots(self) -> int:
        return self.rel_re.shape[0]

    @property
    def relation_begin(self) -> tuple[np.ndarray, np.ndarray]:
        return self.rel_re[: self.n_relations], self.rel_im[: self.n_relations]

    @property
    def relation_end(self) -> tuple[np.ndarray, np.ndarray]:
        # Aliases the begin block on single-slot models.
        if not self.dual:
            return self.rel_re, self.rel_im
        return self.rel_re[self.n_relations:], self.rel_im[self.n_relations:]

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.ent_re.copy(), self.ent_im.copy(), self.rel_re.copy(), self.rel_im.copy(),
            self.phase.copy(), self.n_relations, self.dual, self.norm_p,
            acc={k: v.copy() for k, v in self.acc.items()},
        )


def init_params(n_entities: int, n_relations: int, n_tau: int, k: int, dual: bool,
                seed: int, norm_p: int = 1, dtype=np.float32) -> ModelParams:
    """Seeded uniform initialization.

    Entity/relation components are uniform in +-6/sqrt(2k) per real and
    imaginary part; phases are uniform in [0, 2*pi). Accumulators start at
    zero. Identical seeds give bit-identical parameters.
    """
    if min(n_entities, n_relations, n_tau, k) < 1:
        raise ValueError("all dimensions must be at least 1")
    if norm_p not in (1, 2):
        raise ValueError(f"norm_p must be 1 or 2, got {norm_p}")
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(2 * k)
    n_slots = 2 * n_relations if dual else n_relations
    ent_re = rng.uniform(-bound, bound, (n_entities, k))
    ent_im = rng.uniform(-bound, bound, (n_entities, k))
    rel_re = rng.uniform(-bound, bound, (n_slots, k))
    rel_im = rng.uniform(-bound, bound, (n_slots, k))
    phase = rng.uniform(0.0, 2.0 * np.pi, (n_tau, k))
    return ModelParams(*(a.astype(dtype) for a in (ent_re, ent_im, rel_re, rel_im, phase)),
                       n_relations=n_relations, dual=dual, norm_p=norm_p)


def param_count(params: ModelParams) -> int:
    """Trainable scalar count (accumulators excluded).

    2*n_e*k entity components + 2*n_slots*k relation components + n_tau*k
    phases, where n_slots is 2*n_relations on dual models.
    """
    n_e, k = params.ent_re.shape
    return 2 * n_e * k + 2 * params.n_slots * k + params.n_tau * k


def rotate(re: np.ndarray, im: np.ndarray,
           phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise complex rotation (re + i*im) * e^{i*phase}.

    Preserves the modulus of every coordinate exactly up to float rounding.
    """
    re, im, phase = np.asarray(re), np.asarray(im), np.asarray(phase, float)
    if re.shape != im.shape or re.shape[-1] != phase.shape[-1]:
        raise ValueError(f"shape mismatch: re {re.shape}, im {im.shape}, phase {phase.shape}")
    out_re = np.empty(np.broadcast_shapes(re.shape, phase.shape))
    out_im = np.empty_like(out_re)
    _rotate_into(re, im, np.cos(phase), np.sin(phase), out_re, out_im, np.empty_like(out_re))
    return out_re, out_im


def _rotate_into(re, im, c, s, out_re, out_im, tmp) -> None:
    """(re + i*im) * (c + i*s) written into the float64 ``out_re``/``out_im``.

    ``tmp`` is scratch of the output shape. float64 ``c``/``s`` promote
    float32 coordinates without a float64 copy of them.
    """
    np.multiply(re, c, out=out_re)
    out_re -= np.multiply(im, s, out=tmp)
    np.multiply(re, s, out=out_im)
    out_im += np.multiply(im, c, out=tmp)


def _norm(d_re: np.ndarray, d_im: np.ndarray, p: int) -> np.ndarray:
    """p-norm of a complex difference vector over its 2k real coordinates."""
    if p == 1:
        return np.abs(d_re).sum(axis=-1) + np.abs(d_im).sum(axis=-1)
    return np.sqrt((d_re * d_re).sum(axis=-1) + (d_im * d_im).sum(axis=-1))


def score_quads(params: ModelParams, s: np.ndarray, slot: np.ndarray,
                o: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Vectorized endpoint scores for index arrays of equal length.

    Computed in float64 whatever the storage dtype, so scores are safe to
    compare for ranking.
    """
    c, sn = np.cos(params.phase[tau].astype(np.float64)), \
        np.sin(params.phase[tau].astype(np.float64))
    s_re, s_im = params.ent_re[s].astype(np.float64), params.ent_im[s].astype(np.float64)
    o_re, o_im = params.ent_re[o].astype(np.float64), params.ent_im[o].astype(np.float64)
    # conj(rot(o)) flips the sign of the rotated imaginary part, hence the +.
    d_re = (s_re - o_re) * c - (s_im - o_im) * sn + params.rel_re[slot]
    d_im = (s_re + o_re) * sn + (s_im + o_im) * c + params.rel_im[slot]
    return _norm(d_re, d_im, params.norm_p)


def _check_ids(params: ModelParams, *entities: int, slot: int | None = None,
               tau: int | None = None) -> None:
    # numpy indexing would wrap a negative id round to the last row
    if not all(0 <= e < params.n_entities for e in entities):
        raise IndexError(f"entity id out of range: {entities}, n={params.n_entities}")
    if slot is not None and not 0 <= slot < params.n_slots:
        raise IndexError(f"relation slot {slot} out of range (n_slots={params.n_slots})")
    if tau is not None and not 0 <= tau < params.n_tau:
        raise IndexError(f"time step {tau} out of range (n_tau={params.n_tau})")


def score_point(params: ModelParams, s: int, slot: int, o: int, tau: int) -> float:
    """Score of a single endpoint quadruple. Non-negative; lower is better."""
    _check_ids(params, s, o, slot=slot, tau=tau)
    return float(score_quads(params, np.array([s]), np.array([slot]),
                             np.array([o]), np.array([tau]))[0])


def score_fact(params: ModelParams, quad: Quadruple, binning: TimeBinning) -> float:
    """Score a fact as the mean of its endpoint-term scores.

    Intervals average the begin and end quadruples; half-open annotations
    score only the known endpoint; point facts on dual models average both
    slots at the same step.
    """
    terms = endpoint_terms(quad, binning, params.dual, params.n_relations)
    return float(np.mean([score_point(params, quad.subject, slot, quad.object, tau)
                          for slot, tau in terms]))


def score_step(params: ModelParams, tau: int, anchors, slots, sides) -> np.ndarray:
    """Endpoint scores at step ``tau`` with every entity substituted, per query.

    Query q fixes entity ``anchors[q]`` and relation slot ``slots[q]`` and
    asks for the entity on ``sides[q]``; row q of the ``(Q, n_entities)``
    result scores every candidate. Both sides reduce to
    ``||rot(e, theta_tau) - x_q||_p`` over the 2k real coordinates, with a
    the rotated anchor: ``x = [re(a) + r_re, -(im(a) + r_im)]`` when the
    object is asked for, ``x = [re(a) - r_re, -im(a) - r_im]`` when the
    subject is.

    The entity table is rotated BLOCK_ROWS rows at a time into one buffer,
    and every query is scored against a block while it is still in cache,
    so no table-sized array is built.
    """
    _check_ids(params, *anchors, tau=tau)
    for slot in slots:
        _check_ids(params, slot=slot)
    for side in sides:
        if side not in ("subject", "object"):
            raise ValueError(f"side must be 'subject' or 'object', got {side!r}")
    n, k = params.n_entities, params.k
    anchors, slots = np.asarray(anchors, dtype=np.intp), np.asarray(slots, dtype=np.intp)
    a_re, a_im = rotate(params.ent_re[anchors], params.ent_im[anchors], params.phase[tau])
    r_re, r_im = params.rel_re[slots], params.rel_im[slots]
    obj = np.array([side == "object" for side in sides])[:, None]
    x = np.empty((len(anchors), 2 * k))
    x[:, :k] = np.where(obj, a_re + r_re, a_re - r_re)
    x[:, k:] = np.where(obj, -(a_im + r_im), -a_im - r_im)

    phase = params.phase[tau].astype(np.float64)
    c, s = np.cos(phase), np.sin(phase)
    rows = min(BLOCK_ROWS, n)
    block, diff, tmp = np.empty((rows, 2 * k)), np.empty((rows, 2 * k)), np.empty((rows, k))
    out = np.empty((len(x), n))
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        m = stop - start
        b, d = block[:m], diff[:m]
        _rotate_into(params.ent_re[start:stop], params.ent_im[start:stop], c, s,
                     b[:, :k], b[:, k:], tmp[:m])
        for q in range(len(x)):
            np.subtract(b, x[q], out=d)
            if params.norm_p == 1:
                np.abs(d, out=d)
            else:
                np.multiply(d, d, out=d)
            d.sum(axis=1, out=out[q, start:stop])
    return out if params.norm_p == 1 else np.sqrt(out, out=out)


def save_checkpoint(params: ModelParams, path, vocab_ref: str = "") -> None:
    """Write the binary checkpoint.

    Layout: magic ``TERO``, then little-endian u32 header (version, n_e, n_r,
    n_tau, k, dual, p), then float32 little-endian arrays in fixed order
    (entity re, entity im, begin-relation re/im, end-relation re/im, phases),
    then a u32-length-prefixed UTF-8 vocab sidecar reference.

    The bytes go to ``<path>.tmp``, which is synced and then renamed over
    ``path``, so a write that fails partway leaves any previous checkpoint
    at ``path`` intact.
    """
    head = struct.pack("<7I", CHECKPOINT_VERSION, params.n_entities, params.n_relations,
                       params.n_tau, params.k, int(params.dual), params.norm_p)
    rb_re, rb_im = params.relation_begin
    re_re, re_im = params.relation_end
    ref = vocab_ref.encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(head)
            for arr in (params.ent_re, params.ent_im, rb_re, rb_im, re_re, re_im, params.phase):
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
            fh.write(struct.pack("<I", len(ref)))
            fh.write(ref)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[ModelParams, str]:
    """Read a checkpoint; returns fresh params (zero accumulators) + vocab ref.

    The file size is checked against the header before any array is read,
    and each array is read straight into its float32 array.
    """
    off = 4 + 7 * 4
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(off)
        if head[:4] != CHECKPOINT_MAGIC or len(head) < off:
            raise ValueError(f"{path}: not a TeRo checkpoint")
        version, n_e, n_r, n_tau, k, dual_flag, p = struct.unpack_from("<7I", head, 4)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if dual_flag not in (0, 1) or p not in (1, 2):
            raise ValueError(f"{path}: bad checkpoint header (dual={dual_flag}, p={p})")
        dual = bool(dual_flag)
        # the four relation blocks are stored on single-slot models too
        ref_at = off + 4 * k * (2 * n_e + 4 * n_r + n_tau)
        if size < ref_at + 4:
            raise ValueError(f"{path}: truncated checkpoint ({size} bytes, "
                             f"its header needs {ref_at + 4})")
        fh.seek(ref_at)
        (ref_len,) = struct.unpack("<I", fh.read(4))
        if size != ref_at + 4 + ref_len:
            raise ValueError(f"{path}: checkpoint is {size} bytes, its header "
                             f"describes {ref_at + 4 + ref_len}")
        ref = fh.read(ref_len).decode("utf-8")
        fh.seek(off)

        def read_into(arr: np.ndarray) -> None:
            if fh.readinto(arr) != arr.nbytes:
                raise ValueError(f"{path}: checkpoint changed while it was read")

        def take(rows: int) -> np.ndarray:
            arr = np.empty((rows, k), dtype="<f4")
            read_into(arr)
            return arr

        ent_re, ent_im = take(n_e), take(n_e)
        # slot r + n_r is the end of relation r on dual models; single-slot
        # models skip the stored end blocks
        n_slots = 2 * n_r if dual else n_r
        rel_re = np.empty((n_slots, k), dtype="<f4")
        rel_im = np.empty((n_slots, k), dtype="<f4")
        read_into(rel_re[:n_r])
        read_into(rel_im[:n_r])
        if dual:
            read_into(rel_re[n_r:])
            read_into(rel_im[n_r:])
        else:
            fh.seek(2 * n_r * k * 4, os.SEEK_CUR)
        phase = take(n_tau)
    params = ModelParams(*(a.astype(np.float32, copy=False)
                           for a in (ent_re, ent_im, rel_re, rel_im, phase)),
                         n_relations=n_r, dual=dual, norm_p=p)
    return params, ref
