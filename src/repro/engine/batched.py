"""NumPy-batched GenASM backend: one recurrence step for a whole batch.

The Bitap/GenASM-DC recurrence (Algorithm 1 / Section 5) is data-parallel
across (text, pattern) pairs: every pair at text iteration ``i`` performs the
same shift/OR/AND dance, just on different operands. This backend packs the
batch's status bitvectors into a ``(k + 1, B, W)`` ``uint64`` array (``W``
words per pattern, carry-chained across word boundaries exactly like the
hardware's multi-word mode) and executes each iteration as a handful of
array-wide NumPy operations, so the per-operation interpreter cost is paid
once per batch instead of once per pair.

For the aligner's DC windows the backend is SENE-first (store entries, not
edges, after Scrooge): each distance row is written straight into one
``(n + 1, m + 1, B, W)`` history array — no separate match / insertion /
deletion stores — and each solved window is returned as a
:class:`~repro.engine.packing.PackedWindowBitvectors` wrapping a zero-copy
``(n + 1, k + 1, W)`` slice of that history; the traceback derives edges on
the fly and combines only the cells it visits.

Two details keep the output bit-identical to the scalar kernels:

* pairs whose text is shorter than the batch maximum stay *frozen* at the
  all-ones initial state until the scan reaches their own last character,
  so no padding scheme can perturb the recurrence;
* DC terminates early exactly like :func:`run_dc_window`: one distance row
  of every still-unsolved window per step, in increasing ``d``, and a
  window retires at the first row that hits — so the recorded ``k`` is the
  window's edit distance here too, and no row is ever recomputed.

Small batches are delegated to :class:`PurePythonEngine` — below
``min_batch`` pairs the NumPy call overhead exceeds the win and the scalar
loop is strictly faster.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.bitap import BitapMatch
from repro.core.genasm_dc import WindowData, WindowUnalignableError
from repro.engine.packing import (
    PackedPatterns,
    PackedWindowBitvectors,
    encode_texts,
    numpy_available,
    pack_patterns,
    shift_left_words,
    shift_left_words_by,
)
from repro.engine.pure import PurePythonEngine
from repro.engine.registry import AlignmentEngine, register_engine
from repro.sequences.alphabet import DNA, Alphabet

#: State size (elements of the ``(k + 1, B, W)`` array) above which the
#: sequential insertion chain beats the log-depth prefix scan (measured
#: crossover on CPython 3.11 / NumPy 2.x: ~8k-10k elements).
_PREFIX_SCAN_CUTOFF = 8192


def _recurrence_step(
    old_r: "np.ndarray",
    cur_pm: "np.ndarray",
    all_ones: "np.ndarray",
    k: int,
) -> "np.ndarray":
    """One text iteration of the batched recurrence for all ``k + 1`` rows.

    The scalar recurrence chains rows sequentially through the insertion
    term (``R[d]`` needs the *new* ``R[d - 1]``). Because a left shift
    distributes over AND, unrolling that chain gives

        ``R[d] = AND over t in 0..d of (A[t] << (d - t))``

    with ``A[0]`` the new ``R[0]`` and ``A[d] = deletion & substitution &
    match`` (the old-row terms). That form is a prefix scan under the
    shift-and-AND operator, computed in ``ceil(log2(k + 1))`` array-wide
    rounds instead of ``k`` dependent steps — but only while the state is
    small: the scan does ``O(k log k)`` element-work against the chain's
    ``O(k)``, so once per-call overhead is amortized (large ``k * B * W``)
    the plain chain is faster and is used instead. Both orders produce the
    same bits.

    Masking discipline: every stored ``R`` row is kept clamped below each
    pattern's top bit (row 0 explicitly, rows ``1..k`` through the AND with
    the already-masked ``deletion`` term), so the intermediate shift
    results never need their own ``& all_ones`` — garbage above the top
    bit is annihilated by the AND chain.
    """
    import numpy as np
    new_r = np.empty_like(old_r)
    new_r[0] = (shift_left_words(old_r[0]) | cur_pm) & all_ones
    if k:
        deletion = old_r[:-1]
        substitution = shift_left_words(deletion)
        match = shift_left_words(old_r[1:])
        match |= cur_pm
        substitution &= match
        np.bitwise_and(deletion, substitution, out=new_r[1:])
        if old_r.size <= _PREFIX_SCAN_CUTOFF:
            offset = 1
            while offset <= k:
                new_r[offset:] &= shift_left_words_by(new_r[:-offset], offset)
                offset *= 2
        else:
            for d in range(1, k + 1):
                new_r[d] &= shift_left_words(new_r[d - 1])
    return new_r


@register_engine
class BatchedEngine(AlignmentEngine):
    """Array-wide Bitap / GenASM-DC over packed uint64 bitvectors.

    Parameters
    ----------
    min_batch:
        Batches smaller than this fall through to the pure-Python backend
        (identical results, lower constant cost for tiny jobs). The default
        sits at the measured crossover where array-wide execution starts
        beating the scalar loop.
    """

    name = "batched"

    def __init__(self, *, min_batch: int = 8) -> None:
        if min_batch < 1:
            raise ValueError("min_batch must be at least 1")
        self.min_batch = min_batch
        self._pure = PurePythonEngine()

    @classmethod
    def is_available(cls) -> bool:
        return numpy_available()

    @classmethod
    def unavailable_reason(cls) -> str | None:
        return None if numpy_available() else "NumPy is not installed"

    # ------------------------------------------------------------------
    # Bitap scan
    # ------------------------------------------------------------------
    def scan_batch(
        self,
        pairs: Sequence[tuple[str, str]],
        k: int,
        *,
        alphabet: Alphabet = DNA,
        first_match_only: bool = False,
    ) -> list[list[BitapMatch]]:
        pairs = list(pairs)
        k = self.clamp_k(k, pairs)
        if not pairs:
            return []
        if len(pairs) < self.min_batch:
            return self._pure.scan_batch(
                pairs, k, alphabet=alphabet, first_match_only=first_match_only
            )
        packed = pack_patterns([pattern for _, pattern in pairs], alphabet)
        codes, lengths = encode_texts([text for text, _ in pairs], alphabet)
        return self._scan(codes, lengths, packed, k, first_match_only)

    def _scan(
        self,
        codes: "np.ndarray",
        lengths: "np.ndarray",
        packed: PackedPatterns,
        k: int,
        first_match_only: bool,
    ) -> list[list[BitapMatch]]:
        import numpy as np
        batch, n_max = codes.shape
        all_ones = packed.all_ones
        msb = packed.msb
        bitmasks = packed.bitmasks
        rows = np.arange(batch)
        r = np.broadcast_to(all_ones, (k + 1, batch, packed.word_count)).copy()
        # Match emission is deferred: the loop only records (iteration,
        # matching columns, best distances) triples and the BitapMatch
        # objects are built in one pass afterwards, keeping per-iteration
        # Python work off the hot loop.
        hits: list[tuple[int, list[int], list[int]]] = []
        done = np.zeros(batch, dtype=bool)
        uniform = bool((lengths == n_max).all())
        for i in range(n_max - 1, -1, -1):
            if uniform and not first_match_only:
                active = None  # every pair live at every iteration
            else:
                active = lengths > i
                if first_match_only:
                    active &= ~done
                if not active.any():
                    if first_match_only and done.all():
                        break
                    continue
            cur_pm = bitmasks[rows, codes[:, i]]
            old_r = r
            r = _recurrence_step(old_r, cur_pm, all_ones, k)
            if active is not None and not active.all():
                r = np.where(active[None, :, None], r, old_r)
            # Cheap first: R rows are nested (R[d+1]'s zeros include
            # R[d]'s — each factor of the d+1 recurrence is a superset-of-
            # zeros of the d one), so if no *relevant* pair's row-k MSB
            # cleared, no row cleared at all and the full (k+1, B)
            # reduction plus argmax can be skipped for this iteration.
            top_msb_set = ((r[k] & msb) != 0).any(axis=1)
            if active is None:
                if top_msb_set.all():
                    continue
            elif (top_msb_set | ~active).all():
                continue
            msb_clear = ~((r & msb) != 0).any(axis=2)
            found = msb_clear.any(axis=0)
            if active is not None:
                found &= active
            if found.any():
                cols = np.nonzero(found)[0]
                best_d = msb_clear[:, cols].argmax(axis=0)
                hits.append((i, cols.tolist(), best_d.tolist()))
                if first_match_only:
                    done |= found
        matches: list[list[BitapMatch]] = [[] for _ in range(batch)]
        for i, cols, dists in hits:
            for b, d in zip(cols, dists):
                matches[b].append(BitapMatch(start=i, distance=d))
        return matches

    # ------------------------------------------------------------------
    # GenASM-DC windows
    # ------------------------------------------------------------------
    def run_dc_windows(
        self,
        jobs: Sequence[tuple[str, str]],
        *,
        alphabet: Alphabet = DNA,
    ) -> list[WindowData]:
        """Early-terminating SENE DC: one distance row per step, batch-wide.

        Step ``k`` sweeps row ``k`` of every still-unsolved window over the
        text into ``store[:, k]`` (``store[i, k]`` is ``R[k]`` after text
        iteration ``i``, ``store[n, k]`` the all-ones initial state);
        windows whose row clears its MSB at iteration 0 retire holding a
        zero-copy ``(n + 1, k + 1, W)`` view of the store, the rest go on to
        row ``k + 1``. The three old-row terms of the recurrence are formed
        for all iterations at once; only the match chain is sequential in
        ``i``. A shorter text's padding iterations are held at all-ones
        (``frozen``), so its ``store[n_b]`` *is* the initial state and the
        view works for ragged batches unchanged. ``store`` is sized
        for the worst case but only the rows actually swept are touched.
        """
        import numpy as np
        jobs = list(jobs)
        if not jobs:
            return []
        if len(jobs) < self.min_batch:
            return self._pure.run_dc_windows(jobs, alphabet=alphabet)
        for sub_text, sub_pattern in jobs:
            if not sub_pattern:
                raise ValueError("window pattern must be non-empty")
            if not sub_text:
                raise WindowUnalignableError("window text is empty")

        packed = pack_patterns([pattern for _, pattern in jobs], alphabet)
        codes, lengths = encode_texts([text for text, _ in jobs], alphabet)
        batch, n_max = codes.shape
        m_max = int(packed.lengths.max())
        # Per-iteration operands are laid out (n_max, B, W).
        pm = packed.bitmasks[np.arange(batch)[:, None], codes].transpose(1, 0, 2)
        padding = np.arange(n_max)[:, None] >= lengths[None, :]
        frozen = np.where(padding[:, :, None], packed.all_ones, np.uint64(0))
        store = np.empty(
            (n_max + 1, m_max + 1, batch, packed.word_count), dtype=np.uint64
        )

        results: list[WindowData | None] = [None] * batch
        # Operands of the still-unsolved windows; re-sliced only on a retire.
        alive = np.arange(batch)
        all_ones, msb = packed.all_ones, packed.msb
        below = None  # the previous row of the live windows
        for k in range(m_max + 1):
            if below is None:
                fixed = np.broadcast_to(all_ones, pm.shape)
            else:
                deletion = below[1:]
                fixed = deletion & shift_left_words(deletion)
                fixed &= shift_left_words(below[:-1])
                # A padding iteration's mask is already all-ones (the
                # fallback code), so this alone keeps it at all-ones.
                fixed |= frozen
            swept = np.empty((n_max + 1, *all_ones.shape), dtype=np.uint64)
            swept[n_max] = all_ones
            for i in range(n_max - 1, -1, -1):
                cell = shift_left_words(swept[i + 1])
                cell |= pm[i]
                np.bitwise_and(cell, fixed[i], out=swept[i])
            store[:, k, alive] = swept
            below = swept

            hit = ~((swept[0] & msb) != 0).any(axis=1)
            if not hit.any():
                continue
            for idx in alive[hit].tolist():
                n_b = int(lengths[idx])
                results[idx] = PackedWindowBitvectors(
                    text=jobs[idx][0],
                    pattern=jobs[idx][1],
                    r_words=store[: n_b + 1, : k + 1, idx],
                    edit_distance=k,
                    alphabet=alphabet,
                    pm_table=packed.bitmasks[idx],
                    pm_codes=codes[idx, :n_b],
                )
            keep = ~hit
            alive = alive[keep]
            if not alive.size:
                break
            all_ones, msb = all_ones[keep], msb[keep]
            pm, frozen, below = pm[:, keep], frozen[:, keep], below[:, keep]
        else:  # row m always hits
            raise WindowUnalignableError.no_row_hit(*jobs[int(alive[0])])
        return results  # type: ignore[return-value]
