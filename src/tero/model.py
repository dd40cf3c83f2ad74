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

Row-paired quadruples are scored by one kernel, ``_forward``, run
BLOCK_ROWS rows at a time: in float64 by ``score_quads`` and in the
storage dtype by the training step, so no whole-batch temporary is built.

Link prediction needs every entity rotated to the query's step.
``score_step`` fuses that rotation with the scoring, BLOCK_ROWS rows at a
time, in float32: a screen. It sums each row with BLAS products in chunks
of at most SUM_COLS columns, which bounds the roundings any term meets.
One worker thread per CPU in the process's affinity set takes a contiguous
run of whole blocks, so the screen's values do not depend on their number.
``screen_band`` bounds its error against ``score_quads`` by that depth,
and ``score_quads`` rescores only the gathered candidates the screen
cannot order (~5 per query on the ICEWS14 shape), so ranks equal those of
``score_quads`` over every candidate.

Parameter arrays are float32, matching the checkpoint wire format, so
save/load round-trips are lossless. Models built with ``dtype=np.float64``
(for finite-difference work) behave identically but save with rounding.
"""

from __future__ import annotations

import contextlib
import functools
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"TERO"
CHECKPOINT_VERSION = 1
# rows per block of the fused rotate-and-score kernel and of the training
# step. At k=500 a block is 512 KB of rotated rows plus a 512 KB difference
# buffer, which stay in L2 together: on a Xeon with 2 MB of L2 per core, 32
# and 64 rows were the fastest of 16-256 and 256 rows ~25% slower per
# query. The training step (ICEWS14 shape, batch 512) was also fastest at
# 64 of 16-256, 4% ahead of 32 and 7-11% ahead of the rest.
BLOCK_ROWS = 64
# widest column chunk of the screen's row sum (chunks are the largest
# divisor of 2k up to this). On a 2-core Xeon, the chunk sums of one
# 64 x 1000 float32 block took 4.6 us at 100 columns, 6.3 at 50, 8.5 at
# 25 and 4.2-5.2 at 125-1000, against 15.3 us for numpy's row sum; wider
# chunks gain little and deepen the sum (screen_band)
SUM_COLS = 100
# queries the screen subtracts from a block and chunk-sums per numpy call.
# One query's call on a 64 x 1000 float32 block lasts only ~10-30 us, so
# workers hand the GIL over often, and pairs halve the hand-overs. Over 434
# queries of 10 ICEWS14-shaped steps (k=500, 2-core Xeon, numpy 2.4.6), six
# alternated rounds in one process gave median ms per query: 2 workers 4.17
# at 1 query per call, 3.38 at 2 and 3.86 at 4; 1 worker 5.28 at 1 and 5.04
# at 2. Each worker's difference buffer holds this many blocks (512 KB at
# k=500), which stay in L2 beside its rotated block
QUERIES_PER_OP = 2
U32 = 2.0 ** -24  # unit roundoff of float32


@dataclass
class ModelParams:
    """The five trainable arrays and their shape facts.

    ``rel_re``/``rel_im`` have ``2 * n_relations`` rows when ``dual`` (begin
    block then end block), else ``n_relations``.
    """

    ent_re: np.ndarray  # (n_entities, k)
    ent_im: np.ndarray
    rel_re: np.ndarray  # (n_slots, k)
    rel_im: np.ndarray
    phase: np.ndarray  # (n_tau, k), radians
    n_relations: int
    dual: bool
    norm_p: int = 1

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

    def copy(self) -> "ModelParams":
        return ModelParams(*(a.copy() for a in self.arrays().values()),
                           self.n_relations, self.dual, self.norm_p)


def init_params(n_entities: int, n_relations: int, n_tau: int, k: int, dual: bool,
                seed: int, norm_p: int = 1, dtype=np.float32) -> ModelParams:
    """Seeded uniform initialization.

    Entity/relation components are uniform in +-6/sqrt(2k) per real and
    imaginary part; phases are uniform in [0, 2*pi). Identical seeds give
    bit-identical parameters.
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
    """(re + i*im) * (c + i*s) written into ``out_re``/``out_im``, in their dtype.

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


def _forward(params: ModelParams, cos: np.ndarray, sin: np.ndarray, s: np.ndarray,
             slot: np.ndarray, o: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, ...]:
    """Differences ``rot(s) + r - conj(rot(o))`` of row-paired quadruples, with their terms.

    Works in the dtype of the ``cos``/``sin`` tables, which ``tau`` indexes;
    entity rows are converted to it, with no copy in the storage dtype.
    Returns ``c, sn, a1, a2, b1, b2, d_re, d_im``, each (len(s), k).
    """
    c, sn = cos[tau], sin[tau]
    s_re, s_im, o_re, o_im = (table[rows].astype(cos.dtype, copy=False) for rows in (s, o)
                              for table in (params.ent_re, params.ent_im))
    a1 = s_re - o_re
    a2 = s_im - o_im
    b1 = s_re + o_re
    b2 = s_im + o_im
    # conj(rot(o)) flips the sign of the rotated imaginary part, hence the +.
    d_re = a1 * c
    d_re -= a2 * sn
    d_re += params.rel_re[slot]
    d_im = b1 * sn
    d_im += b2 * c
    d_im += params.rel_im[slot]
    return c, sn, a1, a2, b1, b2, d_re, d_im


def _scores(params: ModelParams, cos: np.ndarray, sin: np.ndarray, s: np.ndarray,
            slot: np.ndarray, o: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Scores of row-paired quadruples in the dtype of ``cos``, BLOCK_ROWS at a time."""
    out = np.empty(len(s), cos.dtype)
    for lo in range(0, len(s), BLOCK_ROWS):
        b = slice(lo, lo + BLOCK_ROWS)
        *_, d_re, d_im = _forward(params, cos, sin, s[b], slot[b], o[b], tau[b])
        out[b] = _norm(d_re, d_im, params.norm_p)
    return out


def score_quads(params: ModelParams, s: np.ndarray, slot: np.ndarray,
                o: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Vectorized endpoint scores for index arrays of equal length.

    Computed in float64 whatever the storage dtype, so scores are safe to
    compare for ranking.
    """
    # trig over the distinct steps only, which the inverse then indexes
    steps, tau = np.unique(tau, return_inverse=True)
    phase = params.phase[steps].astype(np.float64)
    return _scores(params, np.cos(phase), np.sin(phase), s, slot, o, tau)


def _check_ids(params: ModelParams, entities, slots, tau: int) -> None:
    # numpy indexing would wrap a negative id round to the last row
    if not all(0 <= e < params.n_entities for e in entities):
        raise IndexError(f"entity id out of range: {entities}, n={params.n_entities}")
    if not all(0 <= slot < params.n_slots for slot in slots):
        raise IndexError(f"relation slot out of range: {slots}, n_slots={params.n_slots}")
    if not 0 <= tau < params.n_tau:
        raise IndexError(f"time step {tau} out of range (n_tau={params.n_tau})")


def score_step(params: ModelParams, tau: int, anchors, slots, sides,
               ) -> tuple[np.ndarray, np.ndarray]:
    """Float32 screen scores at step ``tau`` with each entity substituted, per query.

    Query q fixes entity ``anchors[q]`` and relation slot ``slots[q]`` and
    asks for the entity on ``sides[q]``. Both sides reduce to
    ``||rot(e, theta_tau) - x_q||_p`` over the 2k real coordinates, with a
    the rotated anchor: ``x = [re(a) + r_re, -(im(a) + r_im)]`` when the
    object is asked for, ``x = [re(a) - r_re, -(im(a) + r_im)]`` when the
    subject is.

    Returns float32 scores of every entity, row q for query q, and the
    per-query offsets ``screen_band`` takes. Entities are rotated
    BLOCK_ROWS rows at a time into one buffer, and every query is scored
    against a block while it is in cache, QUERIES_PER_OP queries per numpy
    call. Each row's 2k terms are summed by two BLAS products with a ones
    vector: one per QUERIES_PER_OP queries over chunks of
    ``largest_divisor(2k, SUM_COLS)`` adjacent columns, then one per block
    over every query's chunk sums, so each term meets few roundings
    (``screen_band``).

    The blocks are split into ``min(usable_cpus(), blocks)`` contiguous
    runs, one per worker thread with its own buffers; ``taskset`` narrows
    the affinity set and so the count. Every block keeps its rows and
    arithmetic, so the result is bit-identical for every worker count. One
    worker runs on the calling thread, and the workers of a call have ended
    when it returns.
    """
    _check_ids(params, anchors, slots, tau)
    for side in sides:
        if side not in ("subject", "object"):
            raise ValueError(f"side must be 'subject' or 'object', got {side!r}")
    k, n = params.k, params.n_entities
    anchors, slots = np.asarray(anchors, dtype=np.intp), np.asarray(slots, dtype=np.intp)
    a_re, a_im = rotate(params.ent_re[anchors], params.ent_im[anchors], params.phase[tau])
    r_re, r_im = params.rel_re[slots], params.rel_im[slots]
    obj = np.array([side == "object" for side in sides])[:, None]
    x = np.hstack([np.where(obj, a_re + r_re, a_re - r_re), -(a_im + r_im)])
    offsets = (17 * U32 * _norm(x[:, :k], x[:, k:], params.norm_p) + np.sqrt(2 * k) * 2.0 ** -68
               + 2.0 ** -44 * (_norm(a_re, a_im, 1) + _norm(r_re, r_im, 1)))

    phase = params.phase[tau].astype(np.float64)
    c, s, x = (a.astype(np.float32) for a in (np.cos(phase), np.sin(phase), x))
    out = np.empty((len(x), n), np.float32)
    n_blocks = -(-n // BLOCK_ROWS)
    workers = min(usable_cpus(), n_blocks)
    # contiguous runs of whole blocks, so every block has the rows it has alone
    cuts = [min(BLOCK_ROWS * (i * n_blocks // workers), n) for i in range(workers + 1)]
    screen = functools.partial(_screen_rows, params, c, s, x, out)
    if workers == 1:
        screen(0, n)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(screen, cuts[:-1], cuts[1:]))  # re-raises a worker's error
    return (out if params.norm_p == 1 else np.sqrt(out, out=out)), offsets


def _screen_rows(params: ModelParams, c, s, x, out, lo: int, hi: int) -> None:
    """Screen sums of entities ``lo:hi`` (whole blocks from ``lo``) into ``out[:, lo:hi]``.

    Holds its own buffers and writes only its own columns of ``out``, so
    calls on disjoint ranges can run side by side.
    """
    k, nq = params.k, len(x)
    w = largest_divisor(2 * k, SUM_COLS)
    m, rows = 2 * k // w, min(BLOCK_ROWS, hi - lo)
    ones_w, ones_m = np.ones(w, np.float32), np.ones(m, np.float32)
    block, tmp = np.empty((rows, 2 * k), np.float32), np.empty((rows, k), np.float32)
    # flat, so that a short last block's views stay contiguous for reshape and np.dot's out
    diff = np.empty(QUERIES_PER_OP * rows * 2 * k, np.float32)
    chunk_sums = np.empty(nq * rows * m, np.float32)
    row_sums = np.empty(nq * rows, np.float32)
    for start in range(lo, hi, BLOCK_ROWS):
        e = slice(start, min(start + BLOCK_ROWS, hi))
        r = e.stop - start
        b, t = block[:r], tmp[:r]
        parts, sums = chunk_sums[:nq * r * m], row_sums[:nq * r]
        _rotate_into(params.ent_re[e], params.ent_im[e], c, s, b[:, :k], b[:, k:], t)
        for q in range(0, nq, QUERIES_PER_OP):
            xq = x[q:q + QUERIES_PER_OP, None]
            d = diff[:len(xq) * r * 2 * k].reshape(len(xq), r, 2 * k)
            np.subtract(b, xq, out=d)
            if params.norm_p == 1:
                np.abs(d, out=d)
            else:
                np.multiply(d, d, out=d)
            np.dot(d.reshape(-1, w), ones_w, out=parts[q * r * m:(q + len(xq)) * r * m])
        np.dot(parts.reshape(-1, m), ones_m, out=sums)
        out[:, e] = sums.reshape(nq, r)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def largest_divisor(n: int, cap: int) -> int:
    """The largest divisor of ``n`` up to ``cap``: the widest equal chunks of n columns."""
    return max(d for d in range(1, min(n, cap) + 1) if n % d == 0)


def screen_band(k: int, score, offset: float) -> tuple[np.float32, np.float32]:
    """Screen scores ``(lo, hi)`` outside which a candidate's order is certain.

    A candidate screened below ``lo`` scores strictly below, by
    ``score_quads``, one screened at ``score``, and one above ``hi``
    strictly above; ``offset`` is the mean of the query's term offsets
    from ``score_step``. The bound: a screen score S is within
    B(S) = a*S + offset of its ``score_quads`` score; a = g/(1 - g),
    g = gamma(D + 13), where gamma(m) = m*u/(1 - m*u) bounds m chained
    roundings, u = U32, and D = (w - 1) + (2k/w - 1), with
    w = largest_divisor(2k, SUM_COLS), is the depth of the screen's row
    sum. That sum adds each chunk of w columns with one BLAS product and
    the 2k/w chunk sums with another.
    Whatever order, blocking or SIMD lanes a product uses, it adds w
    numbers by w - 1 additions, so no term meets more than w - 1 of their
    roundings; its products by the ones vector and by alpha = 1 are exact
    and beta = 0 adds nothing, so a fused multiply-add rounds only its
    addition, as a plain sum does (a wider accumulator rounds less). Each term thus meets at most D
    roundings, and the sum errs by at most gamma(D) times the sum of its
    terms (Higham 2002, section 4.2); D is 108 at k=500, where one plain
    sum of 2k terms would have 2k - 1. Against the exact norm S* of
    d = rot(e) - x, x the float64 query vector, the float32 pass errs by
    gamma(4)*|e_j| per rotated coordinate (casts of cos/sin and of float64
    entities, two products, one sum), which rotation, keeping |e_j|, turns
    into 2*gamma(4)*(S* + ||x||_p); by u*|x_i| from the cast of x and
    u*|d_i| from the subtraction; by gamma(D + 2)*S* from the row sum, or
    for p=2 the squares, their sum and the square root: in all
    gamma(D + 10)*S* + gamma(11)*||x||_p. ``score_quads`` (float64,
    u' = 2^-53) rounds rot(s) + r - conj(rot(o)) its own way, not through
    x: with cos/sin within 4 ulp, each of its coordinates and of x errs by
    under gamma'(12) times the terms it adds up; as |c| + |s| <= sqrt(2)
    and ||e||_1 <= sqrt(2)*(||d||_1 + ||x||_1), that is in all under
    gamma'(12)*(6*||rot(a)||_1 + 3*||r||_1 + 2*||d||_1). The offset's
    2^-44*(||rot(a)||_1 + ||r||_1) covers the first two terms four times;
    the last, as ||d||_1 <= sqrt(2k)*S*, with the norm's gamma'(2k + 3)*S*
    and a mean of two terms (one rounding per precision; halving is exact)
    stays under gamma(1). S* in terms of S gives a and the offset's
    17u*||x||_p > gamma(16)*||x||_p; its sqrt(2k)*2^-68 covers underflow
    four times. Valid while (D + 13)*u < 1/8 and scores stay below 2^60,
    short of float32 overflow; beyond, the band is all. S is surely below
    when S + B(S) < score - B(score), surely above when
    S - B(S) > score + B(score); both thresholds are rounded outward to
    float32, so the float32 comparisons are exact.
    """
    t = float(score)
    w = largest_divisor(2 * k, SUM_COLS)
    du = (w + 2 * k // w + 11) * U32  # (D + 13)*u
    if not (t + offset < 2.0 ** 60 and du < 1 / 8):  # also catches nan
        return np.float32(-np.inf), np.float32(np.inf)
    g = du / (1 - du)
    a = g / (1 - g)
    lo = (t * (1 - a) - 2 * offset) / (1 + a)
    hi = (t * (1 + a) + 2 * offset) / (1 - a)
    return (np.nextafter(np.float32(lo), np.float32(-np.inf)),
            np.nextafter(np.float32(hi), np.float32(np.inf)))


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
    # slot r + n_r ends relation r on dual models; single-slot models store
    # their one block as both begin and end
    n_r = params.n_relations
    end = n_r if params.dual else 0
    ref = vocab_ref.encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(head)
            for arr in (params.ent_re, params.ent_im, params.rel_re[:n_r], params.rel_im[:n_r],
                        params.rel_re[end:], params.rel_im[end:], params.phase):
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
    """Read a checkpoint; returns its params and vocab sidecar reference.

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
