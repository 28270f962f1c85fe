/* Native GenASM kernels: whole-text DC sweeps and the DC+TB inner loops.
 *
 * This module is the compiled half of the plain-int kernel ABI described in
 * repro/core/kernels.py.  The Python side owns every policy decision —
 * which pairs can be coded at all, error types, fallbacks — and hands this
 * module nothing but byte strings of symbol codes, int64 offset arrays and
 * integer parameters.  Each kernel computes what a pure-Python kernel does
 * (bitap_scan's hits or its smallest distance, run_dc_window's early-
 * terminating row loop, traceback_window's opcode dispatch, and the window
 * loop of AlignmentEngine.align_batch), bit-identical and pinned by the
 * conformance + Hypothesis parity suites.
 *
 * Batch layout (scan_many, edit_distance_many, align_many), one call a batch:
 *   - each side of the batch (texts, patterns) is ONE buffer of symbol codes,
 *     the pairs' sequences laid end to end, plus an offsets buffer of
 *     count + 1 native int64s: pair i owns codes[offsets[i] : offsets[i+1]].
 *     Offsets must start at 0, never decrease and end at the buffer length;
 *   - every length, code and allocation size is checked (overflow-safe)
 *     before the GIL is released; a malformed call raises ValueError and
 *     never reads out of bounds.  The caller's buffers are not trusted;
 *   - all pairs run under one Py_BEGIN_ALLOW_THREADS, on scratch allocated
 *     once per call for the largest pair and freed before returning;
 *   - the result is one list with an entry per pair, None (-2 for
 *     edit_distance_many) where the pattern carries a code > n_symbols or
 *     the window loop could not finish: kernels.py reruns exactly those
 *     pairs on the pure path, which raises or answers canonically.
 *
 * Layout conventions shared with kernels.py:
 *   - symbol codes: one byte per character; codes < n_symbols are alphabet
 *     symbols in alphabet order, code n_symbols is the shared
 *     wildcard / out-of-alphabet fallback (all-ones mask, "matches nothing").
 *     A text may hold nothing above n_symbols; a pattern code above it marks
 *     a foreign character;
 *   - mask rows (built here, from the pattern codes): `words` uint64 per
 *     symbol, word 0 least significant, row n_symbols all-ones;
 *   - DC history across the Python boundary (dc_window): (n + 1) rows of
 *     (k + 1) uint64; row i is R after text iteration i, row n is the
 *     initial all-ones state (the layout of SeneWindowBitvectors.r,
 *     single-word only: m <= 64), and k is always the window's edit
 *     distance. Inside C the same cells sit distance-major (dc_rows);
 *   - traceback programs: one byte per opcode, matching genasm_tb's
 *     _MATCH .. _DELETION_EXTEND constants (0..5).
 *
 * dc_window stays a per-window entry point: it serves NativeWindow, whose
 * history the Python traceback walks, off every workload's hot path. The C
 * traceback walk (tb_core) runs only inside align_many's window loop.
 *
 * kmer_index_build and seed_many are the mapper's front half over the same
 * code buffers: the reference's k-mer index as three flat arrays, and every
 * read of a batch seeded against it in one call (layout above their code).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define WORD_BITS 64
#define MAX_SYMBOLS 255 /* codes are bytes; one value is the fallback */

/* Opcodes, numerically identical to repro.core.genasm_tb. */
enum {
    OP_MATCH = 0,
    OP_SUBSTITUTION = 1,
    OP_INSERTION_OPEN = 2,
    OP_DELETION_OPEN = 3,
    OP_INSERTION_EXTEND = 4,
    OP_DELETION_EXTEND = 5,
};

static inline uint64_t
ones_mask(int m)
{
    return (m >= WORD_BITS) ? ~(uint64_t)0 : (((uint64_t)1 << m) - 1);
}

/* ------------------------------------------------------------------ */
/* Argument checking shared by every entry point                       */
/* ------------------------------------------------------------------ */

/* malloc(a * b * c), never of zero bytes; NULL with MemoryError set when
 * the product overflows or the allocation fails. */
static void *
alloc_product(Py_ssize_t a, Py_ssize_t b, Py_ssize_t c)
{
    void *block = NULL;

    if (a >= 0 && b >= 0 && c >= 0 &&
        (b == 0 || a <= PY_SSIZE_T_MAX / b) &&
        (c == 0 || a * b <= PY_SSIZE_T_MAX / c)) {
        const size_t size = (size_t)(a * b * c);
        block = malloc(size > 0 ? size : 1);
    }
    if (block == NULL)
        PyErr_NoMemory();
    return block;
}

/* Index of the first code above `limit`, or -1. */
static Py_ssize_t
first_code_above(const uint8_t *codes, Py_ssize_t len, Py_ssize_t limit)
{
    for (Py_ssize_t i = 0; i < len; i++)
        if (codes[i] > limit)
            return i;
    return -1;
}

static int
check_n_symbols(Py_ssize_t n_symbols)
{
    if (n_symbols < 1 || n_symbols > MAX_SYMBOLS - 1) {
        PyErr_SetString(PyExc_ValueError, "n_symbols out of range");
        return -1;
    }
    return 0;
}

/* A text may index the mask table only up to the fallback row. */
static int
check_text_codes(const Py_buffer *text, Py_ssize_t n_symbols)
{
    const Py_ssize_t bad =
        first_code_above((const uint8_t *)text->buf, text->len, n_symbols);
    if (bad >= 0) {
        PyErr_Format(PyExc_ValueError,
                     "text code at position %zd out of mask-table range",
                     bad);
        return -1;
    }
    return 0;
}

/* Entry i of an offsets buffer (which need not be aligned). */
static inline int64_t
offset_at(const Py_buffer *offsets, Py_ssize_t i)
{
    int64_t value;
    memcpy(&value, (const char *)offsets->buf + i * 8, sizeof(value));
    return value;
}

/* One side of a batch: count + 1 int64 offsets into `codes`, starting at 0,
 * never decreasing, ending at the buffer length, no item shorter than
 * min_length (0 or 1). Returns the pair count and the longest item, or -1
 * with ValueError set. */
static Py_ssize_t
check_side(const Py_buffer *codes, const Py_buffer *offsets, const char *side,
           Py_ssize_t min_length, Py_ssize_t *longest)
{
    if (offsets->len < 8 || offsets->len % 8 != 0) {
        PyErr_Format(PyExc_ValueError,
                     "%s offsets must be count + 1 int64 values", side);
        return -1;
    }
    const Py_ssize_t count = offsets->len / 8 - 1;
    int64_t previous = 0;
    *longest = 0;
    for (Py_ssize_t i = 0; i <= count; i++) {
        const int64_t value = offset_at(offsets, i);
        if (i == 0 ? value != 0
                   : (value < previous || value > (int64_t)codes->len)) {
            PyErr_Format(PyExc_ValueError,
                         "%s offsets must start at 0 and never decrease or "
                         "pass the end of the code buffer (entry %zd)",
                         side, i);
            return -1;
        }
        if (i > 0 && value - previous < (int64_t)min_length) {
            PyErr_Format(PyExc_ValueError, "%s %zd is empty", side, i - 1);
            return -1;
        }
        if (value - previous > (int64_t)*longest)
            *longest = (Py_ssize_t)(value - previous);
        previous = value;
    }
    if (previous != (int64_t)codes->len) {
        PyErr_Format(PyExc_ValueError,
                     "%s offsets must end at the code buffer's length", side);
        return -1;
    }
    return count;
}

/* Both sides of a batch plus the checks every batch entry point shares:
 * equal pair counts, no empty pattern, text codes in range. Returns the
 * pair count and the longest pattern, or -1 with ValueError set. */
static Py_ssize_t
check_batch(const Py_buffer *text, const Py_buffer *text_offsets,
            const Py_buffer *pattern, const Py_buffer *pattern_offsets,
            Py_ssize_t n_symbols, Py_ssize_t *longest_pattern)
{
    Py_ssize_t longest_text;
    if (check_n_symbols(n_symbols) < 0)
        return -1;
    const Py_ssize_t count =
        check_side(text, text_offsets, "text", 0, &longest_text);
    if (count < 0 ||
        check_side(pattern, pattern_offsets, "pattern", 1, longest_pattern) < 0)
        return -1;
    if (pattern_offsets->len != text_offsets->len) {
        PyErr_SetString(PyExc_ValueError,
                        "text and pattern offsets describe different "
                        "numbers of pairs");
        return -1;
    }
    if (check_text_codes(text, n_symbols) < 0)
        return -1;
    return count;
}

/* ------------------------------------------------------------------ */
/* Multiword GenASM-DC sweep (bitap_scan parity, any pattern length)   */
/* ------------------------------------------------------------------ */

/* Per-symbol mask rows of `words` uint64 from pattern codes
 * (pattern_bitmasks parity): bit m-1-j of row a is 0 iff pattern[j] == a;
 * codes >= n_symbols (wildcard, unknown) clear nothing and the fallback row
 * n_symbols stays all-ones. The window kernels call it with words == 1. */
static void
build_masks(const uint8_t *pattern, Py_ssize_t m, Py_ssize_t n_symbols,
            Py_ssize_t words, uint64_t *rows)
{
    const uint64_t top_mask = ones_mask((int)((m - 1) % WORD_BITS) + 1);
    for (Py_ssize_t s = 0; s <= n_symbols; s++)
        for (Py_ssize_t w = 0; w < words; w++)
            rows[s * words + w] = (w == words - 1) ? top_mask : ~(uint64_t)0;
    for (Py_ssize_t j = 0; j < m; j++) {
        const Py_ssize_t bit = m - 1 - j;
        if (pattern[j] < n_symbols)
            rows[pattern[j] * words + bit / WORD_BITS] &=
                ~((uint64_t)1 << (bit % WORD_BITS));
    }
}

/* The question a sweep answers: every column's smallest hitting distance
 * (scan_many), the right-most hit at its smallest distance (scan_many's
 * first_match_only), or just the smallest distance anywhere
 * (edit_distance_many). */
enum { SWEEP_ALL, SWEEP_FIRST, SWEEP_MIN };

/* dc_rows' recurrence over `words` uint64 per column, word 0 least
 * significant, carries chained upward: distance rows in increasing d over
 * the whole text. rows holds two rows of (n + 1) * words — column i is R[d]
 * after text iteration i, column n the initial all-ones state. A column
 * hits when its top-word MSB is 0: the pattern matches from text[i] on.
 *
 * SWEEP_MIN returns the first hitting d (early termination), or -1 when no
 * row up to k hits. The other modes return -1 and set best[i] (n entries,
 * -1 on entry) to the smallest d hitting column i; under SWEEP_FIRST a row
 * stops at its first hit and later rows sweep only the columns right of
 * it, so the right-most hit column ends up holding its smallest d.
 * Inlined per constant word count (sweep_many) so the word loop unrolls. */
static inline __attribute__((always_inline)) Py_ssize_t
dc_sweep(const uint8_t *text, Py_ssize_t n, const uint64_t *masks,
         Py_ssize_t words, Py_ssize_t m, Py_ssize_t k, int mode,
         uint64_t *rows, Py_ssize_t *best)
{
    const Py_ssize_t top = words - 1;
    const uint64_t top_mask = ones_mask((int)((m - 1) % WORD_BITS) + 1);
    const uint64_t msb = (uint64_t)1 << ((m - 1) % WORD_BITS);
    uint64_t *below = rows + (n + 1) * words, *cur = rows;
    Py_ssize_t low = 0; /* columns left of `low` can no longer matter */

    for (Py_ssize_t d = 0; d <= k && low < n; d++) {
        uint64_t *swap = below;
        below = cur;
        cur = swap;
        for (Py_ssize_t w = 0; w < words; w++)
            cur[n * words + w] = (w == top) ? top_mask : ~(uint64_t)0;
        for (Py_ssize_t i = n - 1; i >= low; i--) {
            const uint64_t *pm = masks + (Py_ssize_t)text[i] * words;
            const uint64_t *right = cur + (i + 1) * words; /* R[d][i+1] */
            const uint64_t *diag = below + (i + 1) * words; /* R[d-1][i+1] */
            const uint64_t *up = below + i * words;         /* R[d-1][i] */
            uint64_t *c = cur + i * words;
            uint64_t carry_m = 0, carry_s = 0, carry_i = 0;
            for (Py_ssize_t w = 0; w < words; w++) {
                uint64_t v = (right[w] << 1) | carry_m | pm[w];
                carry_m = right[w] >> (WORD_BITS - 1);
                if (d > 0) { /* deletion, substitution, insertion */
                    v &= diag[w] & ((diag[w] << 1) | carry_s) &
                         ((up[w] << 1) | carry_i);
                    carry_s = diag[w] >> (WORD_BITS - 1);
                    carry_i = up[w] >> (WORD_BITS - 1);
                }
                c[w] = v;
            }
            c[top] &= top_mask;
            if (c[top] & msb)
                continue;
            if (mode == SWEEP_MIN)
                return d;
            if (best[i] < 0)
                best[i] = d;
            if (mode == SWEEP_FIRST) {
                low = i + 1;
                break;
            }
        }
    }
    return -1;
}

/* scan_many and edit_distance_many: one sweep per pair, scratch allocated
 * once for the largest. A pair whose pattern holds a foreign code answers
 * None (scan_many) or -2 (edit_distance_many, where -1 means no row up to
 * k hits). */
static PyObject *
sweep_many(PyObject *args, int mode)
{
    Py_buffer text, text_offsets, pattern, pattern_offsets;
    Py_ssize_t n_symbols, k;
    int first_match_only = 0;

    if (!PyArg_ParseTuple(args,
                          mode == SWEEP_MIN ? "y*y*y*y*nn" : "y*y*y*y*nnp",
                          &text, &text_offsets, &pattern, &pattern_offsets,
                          &n_symbols, &k, &first_match_only))
        return NULL;
    if (first_match_only)
        mode = SWEEP_FIRST;

    PyObject *result = NULL;
    uint64_t *rows = NULL, *masks = NULL;
    Py_ssize_t *best = NULL;
    Py_ssize_t *answer = NULL;

    Py_ssize_t longest, row = 1;
    const Py_ssize_t count = check_batch(&text, &text_offsets, &pattern,
                                         &pattern_offsets, n_symbols,
                                         &longest);
    if (count < 0)
        goto done;
    if (k < 0) {
        PyErr_SetString(PyExc_ValueError, "k must be non-negative");
        goto done;
    }
    /* The longest row any pair needs, (n + 1) * words. */
    for (Py_ssize_t i = 0; i < count; i++) {
        const Py_ssize_t n = offset_at(&text_offsets, i + 1) -
                             offset_at(&text_offsets, i);
        const Py_ssize_t words = (offset_at(&pattern_offsets, i + 1) -
                                  offset_at(&pattern_offsets, i) +
                                  WORD_BITS - 1) / WORD_BITS;
        if (n >= PY_SSIZE_T_MAX / words - 1) {
            PyErr_NoMemory();
            goto done;
        }
        if ((n + 1) * words > row)
            row = (n + 1) * words;
    }
    if ((rows = alloc_product(row, 2, sizeof(uint64_t))) == NULL ||
        (masks = alloc_product(n_symbols + 1,
                               (longest + WORD_BITS - 1) / WORD_BITS,
                               sizeof(uint64_t))) == NULL ||
        (best = alloc_product(mode == SWEEP_MIN ? 0 : text.len,
                              sizeof(Py_ssize_t), 1)) == NULL ||
        (answer = alloc_product(count, sizeof(Py_ssize_t), 1)) == NULL)
        goto done;

    const uint8_t *text_codes = (const uint8_t *)text.buf;
    const uint8_t *pattern_codes = (const uint8_t *)pattern.buf;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < count; i++) {
        const Py_ssize_t t0 = offset_at(&text_offsets, i);
        const Py_ssize_t p0 = offset_at(&pattern_offsets, i);
        const Py_ssize_t n = offset_at(&text_offsets, i + 1) - t0;
        const Py_ssize_t m = offset_at(&pattern_offsets, i + 1) - p0;
        if (first_code_above(pattern_codes + p0, m, n_symbols) >= 0) {
            answer[i] = -2; /* foreign character: the pure path raises */
            continue;
        }
        const Py_ssize_t words = (m + WORD_BITS - 1) / WORD_BITS;
        if (mode != SWEEP_MIN)
            for (Py_ssize_t j = 0; j < n; j++)
                best[t0 + j] = -1;
        build_masks(pattern_codes + p0, m, n_symbols, words, masks);
#define SWEEP(W) dc_sweep(text_codes + t0, n, masks, W, m, k < m ? k : m, \
                         mode, rows, mode == SWEEP_MIN ? NULL : best + t0)
        switch (words) { /* patterns up to 256 symbols unroll */
        case 1: answer[i] = SWEEP(1); break;
        case 2: answer[i] = SWEEP(2); break;
        case 3: answer[i] = SWEEP(3); break;
        case 4: answer[i] = SWEEP(4); break;
        default: answer[i] = SWEEP(words);
        }
#undef SWEEP
    }
    Py_END_ALLOW_THREADS

    result = PyList_New(count);
    if (result == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *entry;
        if (mode == SWEEP_MIN) {
            entry = PyLong_FromSsize_t(answer[i]);
        } else if (answer[i] == -2) {
            entry = Py_None;
            Py_INCREF(entry);
        } else { /* hits in decreasing start; the first is first_match's */
            const Py_ssize_t t0 = offset_at(&text_offsets, i);
            entry = PyList_New(0);
            for (Py_ssize_t j = offset_at(&text_offsets, i + 1) - t0 - 1;
                 entry != NULL && j >= 0; j--) {
                if (best[t0 + j] < 0)
                    continue;
                PyObject *hit = Py_BuildValue("(nn)", j, best[t0 + j]);
                if (hit == NULL || PyList_Append(entry, hit) < 0)
                    Py_CLEAR(entry);
                Py_XDECREF(hit);
                if (mode == SWEEP_FIRST)
                    break;
            }
        }
        if (entry == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, i, entry);
    }

done:
    free(rows);
    free(masks);
    free(best);
    free(answer);
    PyBuffer_Release(&text);
    PyBuffer_Release(&text_offsets);
    PyBuffer_Release(&pattern);
    PyBuffer_Release(&pattern_offsets);
    return result;
}

static PyObject *
py_scan_many(PyObject *self, PyObject *args)
{
    return sweep_many(args, SWEEP_ALL);
}

static PyObject *
py_edit_distance_many(PyObject *self, PyObject *args)
{
    return sweep_many(args, SWEEP_MIN);
}

/* ------------------------------------------------------------------ */
/* Single-word GenASM-DC with early termination (run_dc_window parity) */
/* ------------------------------------------------------------------ */

/* Distance rows in increasing d, stopping at the first one whose MSB is 0
 * at text iteration 0; returns that d — the window's edit distance and its
 * k — or -1 if no row up to m hits (impossible for n >= 1).
 *
 * rows holds row d at rows + d * (n + 1): entry i is R[d] after text
 * iteration i, entry n the initial all-ones state. Row 0 is swept alone and
 * leaves PM[text[i]] in pm_column; after it rows d and d + 1 share one
 * sweep, row d + 1 a column behind row d so that its inputs are still in
 * registers (the Fig. 5 wavefront, two PEs wide). Row d + 1 is wasted when
 * row d hits, and nothing above the returned d is ever read. The pair
 * (m, m + 1) can start, so rows needs (m + 2) * (n + 1) words and
 * pm_column n.
 *
 *   R[d][i] = R[d-1][i+1] & (R[d-1][i+1] << 1) & (R[d-1][i] << 1)
 *             & ((R[d][i+1] << 1) | PM[text[i]])
 *
 * R[d-1][i+1] is clamped to m bits, so the shifted terms need no mask. */
static Py_ssize_t
dc_rows(const uint8_t *text, Py_ssize_t n, const uint64_t *masks,
        Py_ssize_t m, uint64_t *rows, uint64_t *pm_column)
{
    const uint64_t ones = ones_mask((int)m);
    const uint64_t msb = (uint64_t)1 << (m - 1);
    const Py_ssize_t stride = n + 1;

    uint64_t cur = ones;
    rows[n] = ones;
    for (Py_ssize_t i = n - 1; i >= 0; i--) {
        const uint64_t pm = masks[text[i]];
        pm_column[i] = pm;
        cur = ((cur << 1) | pm) & ones;
        rows[i] = cur;
    }
    if (!(cur & msb))
        return 0;

    for (Py_ssize_t d = 1; d <= m; d += 2) {
        const uint64_t *below = rows + (d - 1) * stride;
        uint64_t *low = rows + d * stride;
        uint64_t *high = low + stride;
        low[n] = high[n] = ones;
        /* Column n - 1 of the low row alone; the high row starts a column
         * later. both_x is c & (c << 1), the deletion and substitution
         * terms a cell c of row x hands to the row above it. */
        uint64_t both_low = ones & (ones << 1);
        uint64_t shifted = below[n - 1] << 1;
        uint64_t low_next =
            both_low & shifted & ((ones << 1) | pm_column[n - 1]);
        uint64_t both_below = below[n - 1] & shifted;
        uint64_t high_next = ones;
        low[n - 1] = low_next;
        /* Entering column i: low_next = R[d][i+1], high_next = R[d+1][i+2],
         * both_below is of R[d-1][i+1] and both_low of R[d][i+2]. */
        for (Py_ssize_t i = n - 2; i >= 0; i--) {
            shifted = below[i] << 1;
            const uint64_t low_cur =
                both_below & shifted & ((low_next << 1) | pm_column[i]);
            both_below = below[i] & shifted;
            low[i] = low_cur;
            shifted = low_next << 1;
            high_next =
                both_low & shifted & ((high_next << 1) | pm_column[i + 1]);
            both_low = low_next & shifted;
            high[i + 1] = high_next;
            low_next = low_cur;
        }
        if (!(low_next & msb))
            return d;
        high[0] =
            both_low & (low_next << 1) & ((high_next << 1) | pm_column[0]);
        if (!(high[0] & msb))
            return d + 1;
    }
    return -1;
}

static PyObject *
py_dc_window(PyObject *self, PyObject *args)
{
    Py_buffer text, pattern;
    Py_ssize_t n_symbols;

    if (!PyArg_ParseTuple(args, "y*y*n", &text, &pattern, &n_symbols))
        return NULL;

    PyObject *result = NULL;
    uint64_t *rows = NULL;
    const Py_ssize_t n = text.len;
    const Py_ssize_t m = pattern.len;

    if (m < 1 || m > WORD_BITS) {
        PyErr_SetString(PyExc_ValueError,
                        "pattern length must be in [1, 64] for the "
                        "single-word DC kernel");
        goto done;
    }
    if (n < 1) {
        PyErr_SetString(PyExc_ValueError, "window text must be non-empty");
        goto done;
    }
    if (check_n_symbols(n_symbols) < 0 ||
        check_text_codes(&text, n_symbols) < 0)
        goto done;

    /* dc_rows' m + 2 rows, and the PM column behind them. */
    rows = alloc_product(n + 1, m + 3, sizeof(uint64_t));
    if (rows == NULL)
        goto done;

    uint64_t masks[MAX_SYMBOLS + 1];
    Py_ssize_t distance;
    Py_BEGIN_ALLOW_THREADS
    build_masks((const uint8_t *)pattern.buf, m, n_symbols, 1, masks);
    distance = dc_rows((const uint8_t *)text.buf, n, masks, m, rows,
                       rows + (m + 2) * (n + 1));
    Py_END_ALLOW_THREADS

    if (distance < 0) {
        result = Py_None;
        Py_INCREF(result);
        goto done;
    }
    /* Ship rows 0..distance in the documented layout: text-major,
     * (n + 1) rows of (distance + 1) words. */
    const Py_ssize_t kk = distance + 1;
    PyObject *packed = PyBytes_FromStringAndSize(
        NULL, (n + 1) * kk * (Py_ssize_t)sizeof(uint64_t));
    if (packed == NULL)
        goto done;
    char *out = PyBytes_AS_STRING(packed);
    for (Py_ssize_t i = 0; i <= n; i++)
        for (Py_ssize_t d = 0; d < kk; d++, out += sizeof(uint64_t))
            memcpy(out, &rows[d * (n + 1) + i], sizeof(uint64_t));
    result = Py_BuildValue("(nN)", distance, packed);

done:
    free(rows);
    PyBuffer_Release(&text);
    PyBuffer_Release(&pattern);
    return result;
}

/* ------------------------------------------------------------------ */
/* Traceback walk (traceback_window parity, single-word)               */
/* ------------------------------------------------------------------ */

typedef struct {
    Py_ssize_t text_consumed;
    Py_ssize_t pattern_consumed;
    Py_ssize_t errors_used;
} TbState;

/* traceback_window's opcode-program walk over dc_rows' distance-major rows
 * (R[d] after text iteration i is rows[d * (n + 1) + i]); appends expanded
 * CIGAR chars to ops and returns their count, or -1 on a dead end
 * (impossible for well-formed rows — align_core hands the pair back and the
 * pure loop raises TracebackError). Every op consumes a text or a pattern
 * character, so ops must hold min(2 * consume_limit, n + m) chars. */
static inline Py_ssize_t
tb_core(const uint64_t *rows, const uint8_t *text, Py_ssize_t n,
        const uint64_t *masks, Py_ssize_t m, Py_ssize_t edit_distance,
        Py_ssize_t consume_limit, const uint8_t *program,
        Py_ssize_t program_len, char *ops, TbState *state)
{
    const uint64_t ones = ones_mask((int)m);
    const Py_ssize_t stride = n + 1;
    Py_ssize_t pattern_index = m - 1;
    uint64_t pattern_bit = (uint64_t)1 << pattern_index;
    Py_ssize_t text_index = 0;
    Py_ssize_t cur_error = edit_distance;
    Py_ssize_t text_consumed = 0, pattern_consumed = 0, errors_used = 0;
    char prev = 0;
    Py_ssize_t out = 0;

    while (text_consumed < consume_limit && pattern_consumed < consume_limit) {
        if (pattern_index < 0 || text_index >= n)
            break;
        /* cell = R[cur_error] after iteration text_index */
        const uint64_t *cell = rows + cur_error * stride + text_index;
        const uint64_t mvec = ((cell[1] << 1) | masks[text[text_index]]) & ones;
        uint64_t svec, ivec, dvec;
        if (cur_error) {
            dvec = cell[1 - stride];
            svec = (dvec << 1) & ones;
            ivec = (cell[-stride] << 1) & ones;
        } else {
            svec = ivec = dvec = ones;
        }
        int picked = -1;
        for (Py_ssize_t p = 0; p < program_len; p++) {
            const uint8_t opcode = program[p];
            if (opcode == OP_MATCH) {
                if (!(mvec & pattern_bit)) {
                    picked = OP_MATCH;
                    break;
                }
            } else if (cur_error <= 0) {
                continue; /* error cases need budget remaining */
            } else if (opcode == OP_SUBSTITUTION) {
                if (!(svec & pattern_bit)) {
                    picked = OP_SUBSTITUTION;
                    break;
                }
            } else if (opcode == OP_INSERTION_OPEN) {
                if (!(ivec & pattern_bit)) {
                    picked = OP_INSERTION_OPEN;
                    break;
                }
            } else if (opcode == OP_DELETION_OPEN) {
                if (!(dvec & pattern_bit)) {
                    picked = OP_DELETION_OPEN;
                    break;
                }
            } else if (opcode == OP_INSERTION_EXTEND) {
                if (prev == 'I' && !(ivec & pattern_bit)) {
                    picked = OP_INSERTION_EXTEND;
                    break;
                }
            } else { /* OP_DELETION_EXTEND */
                if (prev == 'D' && !(dvec & pattern_bit)) {
                    picked = OP_DELETION_EXTEND;
                    break;
                }
            }
        }
        if (picked < 0)
            return -1;
        if (picked == OP_MATCH) {
            ops[out++] = 'M';
            prev = 'M';
            text_index++;
            text_consumed++;
            pattern_index--;
            pattern_bit >>= 1;
            pattern_consumed++;
        } else if (picked == OP_SUBSTITUTION) {
            ops[out++] = 'S';
            prev = 'S';
            cur_error--;
            errors_used++;
            text_index++;
            text_consumed++;
            pattern_index--;
            pattern_bit >>= 1;
            pattern_consumed++;
        } else if (picked == OP_INSERTION_OPEN ||
                   picked == OP_INSERTION_EXTEND) {
            ops[out++] = 'I';
            prev = 'I';
            cur_error--;
            errors_used++;
            pattern_index--;
            pattern_bit >>= 1;
            pattern_consumed++;
        } else { /* deletion open / extend */
            ops[out++] = 'D';
            prev = 'D';
            cur_error--;
            errors_used++;
            text_index++;
            text_consumed++;
        }
    }
    state->text_consumed = text_consumed;
    state->pattern_consumed = pattern_consumed;
    state->errors_used = errors_used;
    return out;
}

/* ------------------------------------------------------------------ */
/* Whole-pair windowed align loop (AlignmentEngine.align_batch parity) */
/* ------------------------------------------------------------------ */

typedef struct {
    Py_ssize_t ops_len; /* -1: not aligned here, the pure path answers */
    Py_ssize_t text_consumed;
    Py_ssize_t edits; /* non-match ops: the alignment's edit distance */
} AlignedPair;

/* The window loop for one pair; returns 0 with the expanded CIGAR in ops,
 * or -1 where the generic loop raises (no progress, past the end, dead end,
 * unalignable window) — the caller reruns the pair there for the exception.
 * ops must hold n + m chars: every op consumes a text or pattern character
 * and neither sequence is consumed past its end. */
static int
align_core(const uint8_t *text, Py_ssize_t n, const uint8_t *pattern,
           Py_ssize_t m, Py_ssize_t n_symbols, Py_ssize_t window_size,
           Py_ssize_t overlap, const uint8_t *program,
           Py_ssize_t program_len, uint64_t *rows, uint64_t *pm_column,
           uint64_t *masks, char *ops, AlignedPair *aligned)
{
    const Py_ssize_t consume_limit = window_size - overlap;
    Py_ssize_t cur_text = 0, cur_pattern = 0, out = 0, edits = 0;

    while (cur_pattern < m) {
        if (cur_text >= n) {
            /* Text exhausted: every remaining pattern character is an
             * insertion relative to the reference. */
            edits += m - cur_pattern;
            while (cur_pattern < m) {
                ops[out++] = 'I';
                cur_pattern++;
            }
            break;
        }
        const uint8_t *sub_text = text + cur_text;
        const Py_ssize_t sn =
            (n - cur_text < window_size) ? n - cur_text : window_size;
        const uint8_t *sub_pattern = pattern + cur_pattern;
        const Py_ssize_t sm =
            (m - cur_pattern < window_size) ? m - cur_pattern : window_size;

        build_masks(sub_pattern, sm, n_symbols, 1, masks);
        const Py_ssize_t edit_distance =
            dc_rows(sub_text, sn, masks, sm, rows, pm_column);
        if (edit_distance < 0)
            return -1;

        TbState state;
        memset(&state, 0, sizeof(state));
        const Py_ssize_t produced =
            tb_core(rows, sub_text, sn, masks, sm, edit_distance,
                    consume_limit, program, program_len, ops + out, &state);
        if (produced < 0 ||
            (state.text_consumed == 0 && state.pattern_consumed == 0))
            return -1;
        out += produced;
        edits += state.errors_used;
        cur_pattern += state.pattern_consumed;
        cur_text += state.text_consumed;
    }
    aligned->ops_len = out;
    aligned->text_consumed = cur_text;
    aligned->edits = edits;
    return 0;
}

static PyObject *
py_align_many(PyObject *self, PyObject *args)
{
    Py_buffer text, text_offsets, pattern, pattern_offsets, program;
    Py_ssize_t n_symbols, window_size, overlap;

    if (!PyArg_ParseTuple(args, "y*y*y*y*nnny*", &text, &text_offsets,
                          &pattern, &pattern_offsets, &n_symbols,
                          &window_size, &overlap, &program))
        return NULL;

    PyObject *result = NULL;
    char *ops = NULL;
    uint64_t *rows = NULL;
    AlignedPair *aligned = NULL;

    Py_ssize_t longest;
    const Py_ssize_t count = check_batch(&text, &text_offsets, &pattern,
                                         &pattern_offsets, n_symbols,
                                         &longest);
    if (count < 0)
        goto done;
    if (window_size < 1 || window_size > WORD_BITS) {
        PyErr_SetString(PyExc_ValueError,
                        "window_size must be in [1, 64] for the single-word "
                        "align kernel");
        goto done;
    }
    if (overlap < 0 || overlap >= window_size) {
        PyErr_SetString(PyExc_ValueError,
                        "overlap must satisfy 0 <= O < W");
        goto done;
    }

    /* Pair i writes its ops at the sum of its two offsets: n + m chars
     * each, so the arena is the two code buffers' lengths together. The
     * pure loop's past-the-end check cannot fire here: a window never
     * holds more text than remains. */
    if (text.len > PY_SSIZE_T_MAX - pattern.len) {
        PyErr_NoMemory();
        goto done;
    }
    if ((ops = alloc_product(text.len + pattern.len, 1, 1)) == NULL ||
        /* dc_rows' W + 2 rows of W + 1, and the PM column behind them */
        (rows = alloc_product(window_size + 1, window_size + 3,
                              sizeof(uint64_t))) == NULL ||
        (aligned = alloc_product(count, sizeof(AlignedPair), 1)) == NULL)
        goto done;

    const uint8_t *text_codes = (const uint8_t *)text.buf;
    const uint8_t *pattern_codes = (const uint8_t *)pattern.buf;
    uint64_t masks[MAX_SYMBOLS + 1];
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < count; i++) {
        const Py_ssize_t t0 = offset_at(&text_offsets, i);
        const Py_ssize_t p0 = offset_at(&pattern_offsets, i);
        const Py_ssize_t n = offset_at(&text_offsets, i + 1) - t0;
        const Py_ssize_t m = offset_at(&pattern_offsets, i + 1) - p0;
        if (first_code_above(pattern_codes + p0, m, n_symbols) >= 0 ||
            align_core(text_codes + t0, n, pattern_codes + p0, m, n_symbols,
                       window_size, overlap, (const uint8_t *)program.buf,
                       program.len, rows,
                       rows + (window_size + 2) * (window_size + 1), masks,
                       ops + t0 + p0, &aligned[i]) < 0)
            aligned[i].ops_len = -1;
    }
    Py_END_ALLOW_THREADS

    result = PyList_New(count);
    if (result == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *entry;
        if (aligned[i].ops_len < 0) {
            entry = Py_None;
            Py_INCREF(entry);
        } else {
            entry = Py_BuildValue(
                "(s#nn)",
                ops + offset_at(&text_offsets, i) +
                    offset_at(&pattern_offsets, i),
                aligned[i].ops_len, aligned[i].text_consumed,
                aligned[i].edits);
        }
        if (entry == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, i, entry);
    }

done:
    free(ops);
    free(rows);
    free(aligned);
    PyBuffer_Release(&text);
    PyBuffer_Release(&text_offsets);
    PyBuffer_Release(&pattern);
    PyBuffer_Release(&pattern_offsets);
    PyBuffer_Release(&program);
    return result;
}

/* ------------------------------------------------------------------ */
/* K-mer index build and batch seeding (mapping/index.py, seeding.py)  */
/* ------------------------------------------------------------------ */

/* The index is three flat buffers (KmerIndex.codes / .starts / .positions):
 * the sorted distinct k-mer codes as uint64 (bits_per_symbol bits per
 * symbol, first symbol in the high bits — Alphabet.encode's packing),
 * len(codes) + 1 int64 starts, and the int32 reference positions; k-mer i
 * occurs at positions[starts[i] : starts[i + 1]], ascending. A k-mer holding
 * the sentinel code n_symbols (wildcard, foreign character) has no code. */

/* Alphabet.bits_per_symbol for n_symbols in [1, 254]. */
static int
symbol_bits(Py_ssize_t n_symbols)
{
    int bits = 1;
    while (((Py_ssize_t)1 << bits) < n_symbols)
        bits++;
    return bits;
}

/* k must be positive and a k-mer must fit one 64-bit code. */
static int
check_kmer_length(Py_ssize_t k, int bits)
{
    if (k < 1 || k > WORD_BITS / bits) {
        PyErr_Format(PyExc_ValueError,
                     "seed length k must be in [1, %d] at %d bits per symbol",
                     WORD_BITS / bits, bits);
        return -1;
    }
    return 0;
}

typedef struct {
    uint64_t code;
    int32_t position;
} KmerHit;

static int
compare_kmer_hits(const void *left, const void *right)
{
    const KmerHit *a = left, *b = right;
    if (a->code != b->code)
        return a->code < b->code ? -1 : 1;
    return (a->position > b->position) - (a->position < b->position);
}

static PyObject *
py_kmer_index_build(PyObject *self, PyObject *args)
{
    Py_buffer text;
    Py_ssize_t n_symbols, k, max_occurrences;

    if (!PyArg_ParseTuple(args, "y*nnn", &text, &n_symbols, &k,
                          &max_occurrences))
        return NULL;

    PyObject *result = NULL;
    KmerHit *hits = NULL;
    uint64_t *codes = NULL;
    int64_t *starts = NULL;
    int32_t *positions = NULL;

    if (check_n_symbols(n_symbols) < 0 ||
        check_text_codes(&text, n_symbols) < 0)
        goto done;
    const int bits = symbol_bits(n_symbols);
    if (check_kmer_length(k, bits) < 0)
        goto done;
    if (text.len > (Py_ssize_t)INT32_MAX) {
        PyErr_SetString(PyExc_ValueError,
                        "reference too long for int32 positions");
        goto done;
    }
    const Py_ssize_t n = text.len;
    const Py_ssize_t capacity = n >= k ? n - k + 1 : 0;
    if ((hits = alloc_product(capacity, sizeof(KmerHit), 1)) == NULL ||
        (codes = alloc_product(capacity, sizeof(uint64_t), 1)) == NULL ||
        (starts = alloc_product(capacity + 1, sizeof(int64_t), 1)) == NULL ||
        (positions = alloc_product(capacity, sizeof(int32_t), 1)) == NULL)
        goto done;

    const uint8_t *symbols = (const uint8_t *)text.buf;
    const uint64_t code_mask = ones_mask((int)k * bits);
    Py_ssize_t count = 0, kept_codes = 0, kept_positions = 0, masked = 0;
    Py_BEGIN_ALLOW_THREADS
    uint64_t code = 0;
    Py_ssize_t valid = 0; /* symbols since the last sentinel */
    for (Py_ssize_t i = 0; i < n; i++) {
        if (symbols[i] >= n_symbols) {
            valid = 0;
            code = 0;
            continue;
        }
        code = ((code << bits) | symbols[i]) & code_mask;
        if (++valid >= k) {
            hits[count].code = code;
            hits[count].position = (int32_t)(i - k + 1);
            count++;
        }
    }
    qsort(hits, (size_t)count, sizeof(KmerHit), compare_kmer_hits);
    starts[0] = 0;
    for (Py_ssize_t run = 0; run < count;) {
        Py_ssize_t end = run + 1;
        while (end < count && hits[end].code == hits[run].code)
            end++;
        if (end - run > max_occurrences) {
            masked++;
        } else {
            codes[kept_codes++] = hits[run].code;
            for (Py_ssize_t i = run; i < end; i++)
                positions[kept_positions++] = hits[i].position;
            starts[kept_codes] = (int64_t)kept_positions;
        }
        run = end;
    }
    Py_END_ALLOW_THREADS

    result = Py_BuildValue(
        "(y#y#y#n)", (const char *)codes,
        kept_codes * (Py_ssize_t)sizeof(uint64_t), (const char *)starts,
        (kept_codes + 1) * (Py_ssize_t)sizeof(int64_t),
        (const char *)positions,
        kept_positions * (Py_ssize_t)sizeof(int32_t), masked);

done:
    free(hits);
    free(codes);
    free(starts);
    free(positions);
    PyBuffer_Release(&text);
    return result;
}

/* Entries of the index buffers, which need not be aligned. */
static inline uint64_t
code_at(const Py_buffer *codes, Py_ssize_t i)
{
    uint64_t value;
    memcpy(&value, (const char *)codes->buf + i * 8, sizeof(value));
    return value;
}

static inline int32_t
position_at(const Py_buffer *positions, int64_t i)
{
    int32_t value;
    memcpy(&value, (const char *)positions->buf + i * 4, sizeof(value));
    return value;
}

/* A growable int64 array; scratch that lives for one seed_many call. */
typedef struct {
    int64_t *items;
    Py_ssize_t len, capacity;
} Int64Vector;

/* Room for `extra` more items; -1 when that cannot be allocated. */
static int
vector_reserve(Int64Vector *vector, Py_ssize_t extra)
{
    if (extra <= vector->capacity - vector->len)
        return 0;
    /* Capacity stays below PY_SSIZE_T_MAX / 32 items, so a byte count of
     * it (or of as many Clusters) cannot overflow. */
    if (extra > PY_SSIZE_T_MAX / 64 - vector->len)
        return -1;
    Py_ssize_t capacity = vector->capacity > 0 ? vector->capacity : 64;
    while (capacity < vector->len + extra)
        capacity *= 2;
    int64_t *items =
        realloc(vector->items, (size_t)capacity * sizeof(int64_t));
    if (items == NULL)
        return -1;
    vector->items = items;
    vector->capacity = capacity;
    return 0;
}

static int
compare_int64(const void *left, const void *right)
{
    const int64_t a = *(const int64_t *)left, b = *(const int64_t *)right;
    return (a > b) - (a < b);
}

typedef struct {
    int64_t position; /* max(0, representative diagonal) */
    int64_t votes;
    int64_t order; /* rank by ascending diagonal: Python's sort is stable */
} Cluster;

/* candidate_locations' ranking: most votes first, then leftmost. */
static int
compare_clusters(const void *left, const void *right)
{
    const Cluster *a = left, *b = right;
    if (a->votes != b->votes)
        return a->votes > b->votes ? -1 : 1;
    if (a->position != b->position)
        return a->position < b->position ? -1 : 1;
    return (a->order > b->order) - (a->order < b->order);
}

/* Cluster number `order` is done: a read hanging off the reference's left
 * end (negative diagonal) starts at position 0. */
static inline void
close_cluster(Cluster *clusters, Py_ssize_t order, int64_t diagonal,
              int64_t votes)
{
    clusters[order].position = diagonal > 0 ? diagonal : 0;
    clusters[order].votes = votes;
    clusters[order].order = (int64_t)order;
}

enum { SEED_OK = 0, SEED_NO_MEMORY = 1, SEED_BAD_INDEX = 2 };

/* Seed one read (candidate_locations parity): every stride-th k-mer votes
 * for the diagonals its index hits imply, chains of diagonals no further
 * apart than `tolerance` merge, and the best `max_candidates` clusters are
 * appended to `out` as (read_id, position, votes) triples. `diagonals` and
 * `clusters` are scratch the caller keeps from one read to the next. */
static int
seed_core(const uint8_t *read, Py_ssize_t n, int64_t read_id,
          Py_ssize_t n_symbols, int bits, const Py_buffer *codes,
          const Py_buffer *starts, const Py_buffer *positions, Py_ssize_t k,
          Py_ssize_t stride, Py_ssize_t max_candidates, Py_ssize_t tolerance,
          Int64Vector *diagonals, Cluster **clusters,
          Py_ssize_t *cluster_capacity, Int64Vector *out)
{
    const Py_ssize_t n_codes = codes->len / 8;
    const int64_t n_positions = (int64_t)(positions->len / 4);

    diagonals->len = 0;
    for (Py_ssize_t offset = 0; offset <= n - k;) {
        uint64_t code = 0;
        Py_ssize_t j = 0;
        for (; j < k && read[offset + j] < n_symbols; j++)
            code = (code << bits) | read[offset + j];
        if (j == k) {
            Py_ssize_t low = 0, high = n_codes;
            while (low < high) {
                const Py_ssize_t middle = low + (high - low) / 2;
                if (code_at(codes, middle) < code)
                    low = middle + 1;
                else
                    high = middle;
            }
            if (low < n_codes && code_at(codes, low) == code) {
                /* The index is the caller's: trust no slice of it. */
                const int64_t first = offset_at(starts, low);
                const int64_t last = offset_at(starts, low + 1);
                if (first < 0 || last < first || last > n_positions)
                    return SEED_BAD_INDEX;
                if (vector_reserve(diagonals, (Py_ssize_t)(last - first)) < 0)
                    return SEED_NO_MEMORY;
                for (int64_t hit = first; hit < last; hit++)
                    diagonals->items[diagonals->len++] =
                        (int64_t)position_at(positions, hit) - (int64_t)offset;
            }
        }
        if (stride > n - k - offset)
            break; /* no further seed; offset + stride might not even fit */
        offset += stride;
    }
    if (diagonals->len == 0)
        return SEED_OK;
    qsort(diagonals->items, (size_t)diagonals->len, sizeof(int64_t),
          compare_int64);

    if (*cluster_capacity < diagonals->len) {
        Cluster *grown = realloc(*clusters,
                                 (size_t)diagonals->capacity * sizeof(Cluster));
        if (grown == NULL)
            return SEED_NO_MEMORY;
        *clusters = grown;
        *cluster_capacity = diagonals->capacity;
    }
    /* Walk the distinct diagonals in ascending order: one joins the open
     * cluster when it is within `tolerance` of the previous diagonal, and a
     * cluster is represented by its first most-voted diagonal. */
    Cluster *cluster = *clusters;
    Py_ssize_t n_clusters = 0;
    int64_t previous = 0, best_diagonal = 0, best_count = 0, total = 0;
    for (Py_ssize_t run = 0; run < diagonals->len;) {
        const int64_t diagonal = diagonals->items[run];
        Py_ssize_t end = run + 1;
        while (end < diagonals->len && diagonals->items[end] == diagonal)
            end++;
        const int64_t count = (int64_t)(end - run);
        if (run > 0 && diagonal - previous <= (int64_t)tolerance) {
            total += count;
            if (count > best_count) {
                best_count = count;
                best_diagonal = diagonal;
            }
        } else {
            if (run > 0)
                close_cluster(cluster, n_clusters++, best_diagonal, total);
            total = best_count = count;
            best_diagonal = diagonal;
        }
        previous = diagonal;
        run = end;
    }
    close_cluster(cluster, n_clusters++, best_diagonal, total);
    qsort(cluster, (size_t)n_clusters, sizeof(Cluster), compare_clusters);

    const Py_ssize_t kept =
        n_clusters < max_candidates ? n_clusters : max_candidates;
    if (vector_reserve(out, 3 * kept) < 0)
        return SEED_NO_MEMORY;
    for (Py_ssize_t i = 0; i < kept; i++) {
        out->items[out->len++] = read_id;
        out->items[out->len++] = cluster[i].position;
        out->items[out->len++] = cluster[i].votes;
    }
    return SEED_OK;
}

static PyObject *
py_seed_many(PyObject *self, PyObject *args)
{
    Py_buffer reads, read_offsets, codes, starts, positions;
    Py_ssize_t n_symbols, k, stride, max_candidates, tolerance;

    if (!PyArg_ParseTuple(args, "y*y*ny*y*y*nnnn", &reads, &read_offsets,
                          &n_symbols, &codes, &starts, &positions, &k, &stride,
                          &max_candidates, &tolerance))
        return NULL;

    PyObject *result = NULL, *columns[3] = {NULL, NULL, NULL};
    Int64Vector diagonals = {NULL, 0, 0}, out = {NULL, 0, 0};
    Cluster *clusters = NULL;
    Py_ssize_t cluster_capacity = 0;

    Py_ssize_t longest;
    if (check_n_symbols(n_symbols) < 0)
        goto done;
    const Py_ssize_t count =
        check_side(&reads, &read_offsets, "read", 0, &longest);
    if (count < 0 || check_text_codes(&reads, n_symbols) < 0)
        goto done;
    const int bits = symbol_bits(n_symbols);
    if (check_kmer_length(k, bits) < 0)
        goto done;
    if (stride < 1 || max_candidates < 0 || tolerance < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "stride must be positive, max_candidates and "
                        "diagonal_tolerance non-negative");
        goto done;
    }
    /* Whole-buffer shape only: validating every start would cost a pass
     * over the index per call, so seed_core checks each slice it reads. */
    if (codes.len % 8 != 0 || positions.len % 4 != 0 ||
        starts.len != codes.len + 8 || offset_at(&starts, 0) != 0 ||
        offset_at(&starts, codes.len / 8) != (int64_t)(positions.len / 4)) {
        PyErr_SetString(PyExc_ValueError,
                        "index buffers must be uint64 codes, len(codes) + 1 "
                        "int64 starts from 0 to len(positions), and int32 "
                        "positions");
        goto done;
    }

    int status = SEED_OK;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < count && status == SEED_OK; i++) {
        const Py_ssize_t r0 = offset_at(&read_offsets, i);
        status = seed_core((const uint8_t *)reads.buf + r0,
                           offset_at(&read_offsets, i + 1) - r0, (int64_t)i,
                           n_symbols, bits, &codes, &starts, &positions, k,
                           stride, max_candidates, tolerance, &diagonals,
                           &clusters, &cluster_capacity, &out);
    }
    Py_END_ALLOW_THREADS
    if (status == SEED_NO_MEMORY) {
        PyErr_NoMemory();
        goto done;
    }
    if (status == SEED_BAD_INDEX) {
        PyErr_SetString(PyExc_ValueError,
                        "index starts must never decrease or pass the end "
                        "of the positions buffer");
        goto done;
    }

    const Py_ssize_t candidates = out.len / 3;
    for (int column = 0; column < 3; column++) {
        if ((columns[column] = PyList_New(candidates)) == NULL)
            goto done;
        for (Py_ssize_t i = 0; i < candidates; i++) {
            PyObject *value =
                PyLong_FromLongLong(out.items[3 * i + column]);
            if (value == NULL)
                goto done;
            PyList_SET_ITEM(columns[column], i, value);
        }
    }
    result = PyTuple_Pack(3, columns[0], columns[1], columns[2]);

done:
    for (int column = 0; column < 3; column++)
        Py_XDECREF(columns[column]);
    free(diagonals.items);
    free(out.items);
    free(clusters);
    PyBuffer_Release(&reads);
    PyBuffer_Release(&read_offsets);
    PyBuffer_Release(&codes);
    PyBuffer_Release(&starts);
    PyBuffer_Release(&positions);
    return result;
}

/* ------------------------------------------------------------------ */

static PyMethodDef native_methods[] = {
    {"scan_many", py_scan_many, METH_VARARGS,
     "scan_many(text_codes, text_offsets, pattern_codes, pattern_offsets, "
     "n_symbols, k, first_match_only)\n"
     "-> list[list[(start, distance)] | None] — every pair's hits, one "
     "multiword DC sweep each (bitap_scan parity); None where the pattern "
     "holds a code above n_symbols."},
    {"edit_distance_many", py_edit_distance_many, METH_VARARGS,
     "edit_distance_many(text_codes, text_offsets, pattern_codes, "
     "pattern_offsets, n_symbols, k)\n"
     "-> list[int] — every pair's smallest semi-global distance, distance "
     "rows in increasing d up to the first hit; -1 when none is <= k, -2 "
     "where the pattern holds a code above n_symbols."},
    {"dc_window", py_dc_window, METH_VARARGS,
     "dc_window(text_codes, pattern_codes, n_symbols)\n"
     "-> (edit_distance, history_bytes) | None — single-word GenASM-DC "
     "with SENE history, distance rows in increasing d up to the first hit "
     "(run_dc_window parity; k == edit_distance)."},
    {"align_many", py_align_many, METH_VARARGS,
     "align_many(text_codes, text_offsets, pattern_codes, pattern_offsets, "
     "n_symbols, window_size, overlap, program)\n"
     "-> list[(ops, text_consumed, edit_distance) | None] — the whole "
     "windowed DC+TB loop for every pair; None where the pure window loop "
     "must answer."},
    {"kmer_index_build", py_kmer_index_build, METH_VARARGS,
     "kmer_index_build(text_codes, n_symbols, k, max_occurrences)\n"
     "-> (codes, starts, positions, masked) — the k-mer index of one "
     "reference as uint64 / int64 / int32 bytes (KmerIndex.build parity); "
     "k-mers holding the sentinel code are dropped, ones above "
     "max_occurrences dropped and counted."},
    {"seed_many", py_seed_many, METH_VARARGS,
     "seed_many(read_codes, read_offsets, n_symbols, codes, starts, "
     "positions, k, stride, max_candidates, diagonal_tolerance)\n"
     "-> (read_ids, positions, votes) — parallel lists of every read's "
     "ranked candidate locations (candidate_locations parity)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "repro.core._native",
    "Compiled GenASM kernels (DC sweeps, windowed DC+TB align,\n"
    "k-mer index build, batch seeding).\n"
    "Internal ABI — use repro.core.kernels / the \"native\" engine instead.",
    -1,
    native_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&native_module);
}
