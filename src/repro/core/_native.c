/* Native GenASM kernels: whole-text DC sweeps and the DC+TB inner loops.
 *
 * This module is the compiled half of the plain-int kernel ABI described in
 * repro/core/kernels.py.  The Python side owns every policy decision —
 * error types, fallbacks — and hands this module the caller's sequences
 * (str), translate tables from latin-1 characters to symbol codes, byte
 * strings of codes and integer parameters.  Each kernel computes what a
 * pure-Python kernel does (bitap_scan's hits or its smallest distance,
 * run_dc_window's early-terminating row loop, traceback_window's opcode
 * dispatch, and the window loop of AlignmentEngine.align_batch),
 * bit-identical and pinned by the conformance + Hypothesis parity suites.
 *
 * Batch layout (scan_many, edit_distance_many, align_many; seed_many and
 * map_many over reads), one call a batch:
 *   - the caller's sequence of (text, pattern) pairs, or of reads, plus the
 *     codec's tables and n_symbols. Holding the GIL, code_batch reads each
 *     str in place, whatever its width (1, 2 or 4 bytes a character), and
 *     codes it into scratch; a text character above U+00FF codes as the
 *     sentinel, like any other character outside the alphabet;
 *   - C trusts nothing it is handed: a malformed table or n_symbols raises
 *     ValueError, an item that is not a pair of str TypeError;
 *   - all pairs run under one Py_BEGIN_ALLOW_THREADS, on scratch allocated
 *     once per call for the largest pair and freed before returning;
 *   - the answer is whole: a list with an entry for every item, or None for
 *     the batch when one item is one C does not answer (a foreign character
 *     in a pattern or read, an empty pattern for the sweeps, a window loop
 *     that fails, a map score past 64 bits). The caller then reruns the
 *     whole batch on the pure path, which answers or raises canonically.
 *
 * Layout conventions shared with kernels.py:
 *   - symbol codes: one byte per character; codes < n_symbols are alphabet
 *     symbols in alphabet order, code n_symbols is the shared
 *     wildcard / out-of-alphabet fallback (all-ones mask, "matches nothing").
 *     A text may hold nothing above n_symbols; a pattern code above it
 *     (a pattern character above U+00FF codes as n_symbols + 1) marks a
 *     foreign character;
 *   - mask rows (built here, from the pattern codes): `words` uint64 per
 *     symbol, word 0 least significant, row n_symbols all-ones;
 *   - DC history across the Python boundary (dc_window): (n + 1) rows of
 *     (k + 1) uint64; row i is R after text iteration i, row n is the
 *     initial all-ones state (the layout of SeneWindowBitvectors.r,
 *     single-word only: m <= 64), and k is always the window's edit
 *     distance. Inside C the same cells sit distance-major (dc_rows);
 *   - traceback programs: one byte per opcode, matching genasm_tb's
 *     _MATCH .. _DELETION_EXTEND constants (0..5); a byte above 5 raises
 *     ValueError.
 *
 * dc_window stays a per-window entry point: it serves NativeWindow, whose
 * history the Python traceback walks, off every workload's hot path. The C
 * traceback walk (tb_core) runs only inside align_many's window loop.
 *
 * kmer_index_build and seed_many are the mapper's front half: the
 * reference's k-mer index, built from its text codes, as four flat arrays
 * (a 16-bit prefix directory narrows each lookup's binary search), and
 * every read of a batch seeded against it in one call (layout above their
 * code; reads are coded as texts, so seed_many answers every batch).
 * seed_core, behind seed_many and map_many, looks up a strand's seeds in
 * blocks of up to 16, in five stages over the block: code each seed and
 * prefetch its directory entry; check the directory range and prefetch the
 * search's first code; search the bucket and prefetch the hit's starts
 * entry; check the starts and prefetch the first position; append the
 * diagonals in seed order. A lookup's four loads depend on each other, but
 * different seeds' lookups do not, so a block's cache misses overlap where
 * a seed-at-a-time walk waited for them one by one.
 *
 * map_many is the whole mapper for a batch, one GIL-free call: per read it
 * builds the reverse strand through a complement table over codes, seeds
 * both strands (seed_core), cuts every candidate's region out of the coded
 * reference and aligns it (align_core) before the filter decides, but for
 * an empty region the filter rejects: an alignment within the filter's
 * threshold that stops short of the region's end already answers the
 * filter, and only the other candidates run its first-hit sweep
 * (first_hit). It scores the survivors by
 * Cigar.score's formula and keeps the first best. Region lengths arrive per
 * read from Python (the mapper's one rule). A batch it does not answer
 * comes back None, as in the batch layout above, and ReadMapper's staged
 * path maps it.
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

/* Index of the first code above `limit`, or -1. Blocks of 64 codes are
 * tested without an early exit, so the compiler vectorizes the test: a
 * byte loop took ~2 cycles a code, more or less with where it landed in
 * .text, and every pattern code of a batch passes through here. */
static Py_ssize_t
first_code_above(const uint8_t *codes, Py_ssize_t len, Py_ssize_t limit)
{
    const uint8_t cap = limit < UINT8_MAX ? (uint8_t)limit : UINT8_MAX;
    Py_ssize_t i = 0;
    for (; i + 64 <= len; i += 64) {
        uint8_t above = 0;
        for (int j = 0; j < 64; j++)
            above |= codes[i + j] > cap;
        if (above)
            break;
    }
    for (; i < len; i++)
        if (codes[i] > cap)
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

/* ------------------------------------------------------------------ */
/* Batches: the caller's str objects, coded through its tables          */
/* ------------------------------------------------------------------ */

/* One side of a batch item (a pair's text or pattern, a read) and its codec
 * table: 256 codes, one per latin-1 character. A text table codes nothing
 * above n_symbols (a mask row build_masks never wrote); a pattern coded
 * above it is foreign. */
typedef struct {
    const char *table;
    Py_ssize_t table_length;
    int pattern;
} Side;

/* A batch coded into one buffer, items' sides end to end: side s of item i
 * is codes[at[j] : at[j + 1]], j = i * n_sides + s, and longest[s] the
 * longest such side. refused is set, and the coding stopped, at the first
 * pattern side that codes above n_symbols (a foreign character, for which
 * the pure path raises); an entry point sets it too for anything else it
 * does not answer, and then answers None for the whole batch. */
typedef struct {
    Py_ssize_t count, longest[2];
    uint8_t *codes;
    Py_ssize_t *at;
    int refused;
} Coded;

static void
coded_free(Coded *coded)
{
    free(coded->codes);
    free(coded->at);
}

/* Check n_symbols and the tables, then code `batch` (pairs when n_sides is
 * 2, reads when 1) into *coded, which the caller frees whatever this
 * returns. Each str is read in place at its own width; no Python code runs
 * meanwhile, so all stay alive. A character above U+00FF is outside every
 * alphabet the tables code: n_symbols in a text, foreign in a pattern. -1
 * with ValueError set for a bad table or n_symbols, TypeError for an item
 * that is not a 2-item tuple or list of str, or a str. */
static int
code_batch(PyObject *batch, const Side *sides, int n_sides,
           Py_ssize_t n_symbols, Coded *coded)
{
    memset(coded, 0, sizeof(*coded));
    if (check_n_symbols(n_symbols) < 0)
        return -1;
    for (int s = 0; s < n_sides; s++) {
        if (sides[s].table_length != 256) {
            PyErr_SetString(PyExc_ValueError,
                            "a codec table must be 256 bytes");
            return -1;
        }
        const Py_ssize_t bad = sides[s].pattern ? -1 : first_code_above(
            (const uint8_t *)sides[s].table, 256, n_symbols);
        if (bad >= 0) {
            PyErr_Format(PyExc_ValueError,
                         "text table entry %zd out of mask-table range", bad);
            return -1;
        }
    }
    PyObject *items = PySequence_Fast(batch, "a batch must be a sequence");
    if (items == NULL)
        return -1;
    const Py_ssize_t count = PySequence_Fast_GET_SIZE(items);
    const Py_ssize_t slots = count * n_sides;
    PyObject **sequences = NULL;
    int status = -1;
    if ((coded->at = alloc_product(slots + 1, sizeof(Py_ssize_t), 1)) ==
            NULL ||
        (sequences = alloc_product(slots, sizeof(PyObject *), 1)) == NULL)
        goto done;
    coded->count = count;
    coded->at[0] = 0;
    for (Py_ssize_t j = 0; j < slots; j++) { /* check and lay out */
        const Py_ssize_t i = j / n_sides;
        PyObject *sequence = PySequence_Fast_GET_ITEM(items, i);
        if (n_sides == 2) {
            if (!(PyTuple_Check(sequence) || PyList_Check(sequence)) ||
                PySequence_Fast_GET_SIZE(sequence) != 2) {
                PyErr_Format(PyExc_TypeError,
                             "pair %zd is not a (text, pattern) tuple", i);
                goto done;
            }
            sequence = PySequence_Fast_GET_ITEM(sequence, j % 2);
        }
        if (!PyUnicode_Check(sequence)) {
            PyErr_Format(PyExc_TypeError, "item %zd holds a %.100s, not a str",
                         i, Py_TYPE(sequence)->tp_name);
            goto done;
        }
        if (PyUnicode_READY(sequence) < 0)
            goto done;
        const Py_ssize_t n = PyUnicode_GET_LENGTH(sequence);
        if (n > PY_SSIZE_T_MAX - coded->at[j]) {
            PyErr_NoMemory();
            goto done;
        }
        coded->at[j + 1] = coded->at[j] + n;
        if (n > coded->longest[j % n_sides])
            coded->longest[j % n_sides] = n;
        sequences[j] = sequence;
    }
    if ((coded->codes = alloc_product(coded->at[slots], 1, 1)) == NULL)
        goto done;
    for (Py_ssize_t j = 0; j < slots && !coded->refused; j++) {
        /* Locals: a store through `codes` may alias anything in memory. */
        const Side *side = &sides[j % n_sides];
        const uint8_t *table = (const uint8_t *)side->table;
        const int kind = PyUnicode_KIND(sequences[j]);
        const void *data = PyUnicode_DATA(sequences[j]);
        uint8_t *codes = coded->codes + coded->at[j];
        const Py_ssize_t n = coded->at[j + 1] - coded->at[j];
        if (kind == PyUnicode_1BYTE_KIND) {
            const Py_UCS1 *chars = data;
            for (Py_ssize_t c = 0; c < n; c++)
                codes[c] = table[chars[c]];
        } else {
            const uint8_t wide = (uint8_t)(n_symbols + side->pattern);
            for (Py_ssize_t c = 0; c < n; c++) {
                const Py_UCS4 ch = PyUnicode_READ(kind, data, c);
                codes[c] = ch > 0xFF ? wide : table[ch];
            }
        }
        coded->refused =
            side->pattern && first_code_above(codes, n, n_symbols) >= 0;
    }
    status = 0;

done:
    free(sequences);
    Py_DECREF(items);
    return status;
}

/* ------------------------------------------------------------------ */
/* Multiword GenASM-DC sweep (bitap_scan parity, any pattern length)   */
/* ------------------------------------------------------------------ */

/* Per-symbol mask rows of `words` uint64 from pattern codes
 * (pattern_bitmasks parity): bit m-1-j of row a is 0 iff pattern[j] == a;
 * codes >= n_symbols (wildcard, unknown) clear nothing and the fallback row
 * n_symbols stays all-ones. The sweeps and dc_window build their rows here,
 * and so does the window loop, once per read: a table of ceil(m / 64) words
 * that each window slices its single-word rows from (slice_masks). */
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
 * (edit_distance_many). dc_sweep answers the first two, first_hit the
 * third. */
enum { SWEEP_ALL, SWEEP_FIRST, SWEEP_MIN };

/* dc_rows' recurrence over `words` uint64 per column, word 0 least
 * significant, carries chained upward: distance rows in increasing d over
 * the whole text. rows holds two rows of (n + 1) * words — column i is R[d]
 * after text iteration i, column n the initial all-ones state. A column
 * hits when its top-word MSB is 0: the pattern matches from text[i] on.
 *
 * best[i] (n entries, -1 on entry) becomes the smallest d <= k hitting
 * column i; under SWEEP_FIRST a row stops at its first hit and later rows
 * sweep only the columns right of it, so the right-most hit column ends up
 * holding its smallest d. Inlined per constant word count (sweep_many) so
 * the word loop unrolls. */
static inline __attribute__((always_inline)) void
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
            if (best[i] < 0)
                best[i] = d;
            if (mode == SWEEP_FIRST) {
                low = i + 1;
                break;
            }
        }
    }
}

/* Where a function starts decides where its loops cross 32- and 64-byte
 * boundaries, and the sweeps' loops are sensitive to it: placements of
 * dc_sweep_any 16 bytes apart differ by up to ~25 % in edit_distance_many.
 * The sweeps therefore start on a cache line, so that code added anywhere
 * else in this file does not move them, and are never inlined into their
 * callers, where the alignment would not hold. */
#define HOT_ENTRY __attribute__((aligned(64), noinline))

/* dc_sweep with the word count a constant for patterns up to 256 symbols,
 * so the word loop unrolls. */
HOT_ENTRY
static void
dc_sweep_any(const uint8_t *text, Py_ssize_t n, const uint64_t *masks,
             Py_ssize_t words, Py_ssize_t m, Py_ssize_t k, int mode,
             uint64_t *rows, Py_ssize_t *best)
{
    switch (words) {
    case 1: dc_sweep(text, n, masks, 1, m, k, mode, rows, best); break;
    case 2: dc_sweep(text, n, masks, 2, m, k, mode, rows, best); break;
    case 3: dc_sweep(text, n, masks, 3, m, k, mode, rows, best); break;
    case 4: dc_sweep(text, n, masks, 4, m, k, mode, rows, best); break;
    default: dc_sweep(text, n, masks, words, m, k, mode, rows, best);
    }
}

/* A lane is one window's single-word bitvector, or one word of a pair's
 * column in first_hit. Two windows (pairs) of one text length n sweep
 * together as a GCC vector of two uint64, lane l holding window l: an SSE2
 * register on x86-64 and a NEON one on aarch64, with no intrinsics header
 * and no build flag. One window sweeps as a plain uint64_t: GCC 12 runs a
 * one-element vector through the same recurrence ~7 % slower. LANE_AT is
 * element l of either. */
typedef uint64_t lane1;
typedef uint64_t lane2 __attribute__((vector_size(16)));

#define LANE_AT(value, l) (((uint64_t *)&(value))[l])

/* NAME(text, n, masks, words, m, cap, scratch, distance): the smallest
 * semi-global distance of LANES pairs at once, lane l's text[l][0 : n]
 * (n >= 1) against masks[l], build_masks' `words`-word rows of an
 * m[l]-symbol pattern. distance[l] becomes the first d <= cap[l] (<= m[l])
 * whose row hits in any column, or -1 if none does. The lanes share n and
 * words; the sweep runs until every lane has answered, and a lane that
 * answered earlier is swept along unread.
 *
 * dc_sweep's recurrence in the wavefront order of dc_rows (Fig. 5): row 0
 * alone, gathering the PM column once, then rows d and d + 1 in one pass,
 * d + 1 a column behind d. Only the next row reads a row, so the pass keeps
 * row d - 1 in memory and writes row d + 1 over it, a column behind its
 * last read of each cell; row d lives in registers. Each pass ANDs the top
 * words of every column of each row, and the MSB of the AND is 0 iff some
 * column hits. Lane l answers d if its row d hits, else d + 1 if its row
 * d + 1 hits and d + 1 <= cap[l] (Scrooge's early termination, two rows at
 * a time). A row-d + 1 hit never outranks a row-d hit, and one past the
 * cap is no answer.
 *
 * scratch holds (2n + 5) * words * LANES uint64, aligned as a LANE,
 * [column][word][lane]: the row (n + 1 columns, column n all-ones), the PM
 * column (n), then four columns of registers for word counts above 4.
 * Instantiated per lane count like DEFINE_DC_ROWS and, inside, per word
 * count 1-4 like dc_sweep: first_hit (edit_distance_many's lone pairs,
 * and map_many's filter for a candidate whose alignment does not answer
 * it) and first_hit2 (edit_distance_many's paired ones).
 *
 * Cells, with both(x) = x & (x << 1) the deletion and substitution terms a
 * cell x hands to the row above it and << carrying across words:
 *   low cell  R[d][i]     = both(R[d-1][i+1]) & (R[d-1][i] << 1)
 *                           & ((R[d][i+1] << 1) | PM[text[i]])
 *   high cell R[d+1][i+1] = both(R[d][i+2]) & (R[d][i+1] << 1)
 *                           & ((R[d+1][i+2] << 1) | PM[text[i+1]])
 * Row d - 1 is clamped to m bits, so only row 0 needs the mask. */
#define DEFINE_FIRST_HIT(NAME, LANE, LANES)                                  \
    /* Row d at column i from the row below it (up = R[d-1][i]); low is    \
     * R[d][i+1] on entry and R[d][i] on return, both_below of R[d-1][i+1] \
     * on entry and of R[d-1][i] on return. Returns the top word. */        \
    static inline __attribute__((always_inline)) LANE NAME##_low_cell(      \
        const LANE *up, const LANE *pm, Py_ssize_t words, LANE *low,        \
        LANE *both_below)                                                    \
    {                                                                        \
        LANE carry_up = {0}, carry_low = {0};                                \
        for (Py_ssize_t w = 0; w < words; w++) {                             \
            const LANE shifted_up = (up[w] << 1) | carry_up;                 \
            const LANE shifted_low = (low[w] << 1) | carry_low;              \
            carry_up = up[w] >> (WORD_BITS - 1);                             \
            carry_low = low[w] >> (WORD_BITS - 1);                           \
            low[w] = both_below[w] & shifted_up & (shifted_low | pm[w]);     \
            both_below[w] = up[w] & shifted_up;                              \
        }                                                                    \
        return low[words - 1];                                               \
    }                                                                        \
                                                                             \
    /* Row d + 1 at column i into out; low is R[d][i], both_low of          \
     * R[d][i+1] on entry and of R[d][i] on return, high R[d+1][i+1] on     \
     * entry and R[d+1][i] on return. Returns the top word. */              \
    static inline __attribute__((always_inline)) LANE NAME##_high_cell(     \
        LANE *out, const LANE *pm, Py_ssize_t words, const LANE *low,       \
        LANE *high, LANE *both_low)                                          \
    {                                                                        \
        LANE carry_low = {0}, carry_high = {0};                              \
        for (Py_ssize_t w = 0; w < words; w++) {                             \
            const LANE shifted_low = (low[w] << 1) | carry_low;              \
            const LANE shifted_high = (high[w] << 1) | carry_high;           \
            carry_low = low[w] >> (WORD_BITS - 1);                           \
            carry_high = high[w] >> (WORD_BITS - 1);                         \
            out[w] = high[w] =                                               \
                both_low[w] & shifted_low & (shifted_high | pm[w]);          \
            both_low[w] = low[w] & shifted_low;                              \
        }                                                                    \
        return high[words - 1];                                              \
    }                                                                        \
                                                                             \
    static inline __attribute__((always_inline)) void NAME##_words(         \
        const uint8_t *const *text, Py_ssize_t n,                            \
        const uint64_t *const *masks, Py_ssize_t words, const Py_ssize_t *m, \
        const Py_ssize_t *cap, LANE *row, LANE *registers,                   \
        Py_ssize_t *distance)                                                \
    {                                                                        \
        LANE *const pm = row + (n + 1) * words;                              \
        LANE *const low = registers, *const high = low + words;              \
        LANE *const both_below = high + words;                               \
        LANE *const both_low = both_below + words;                           \
        const Py_ssize_t top = words - 1;                                    \
        const LANE zero = {0}, ones = ~zero;                                 \
        LANE top_ones = zero, msb = zero, hit_low = ones, hit_high;          \
        Py_ssize_t open = LANES;                                             \
        for (int l = 0; l < LANES; l++) {                                    \
            LANE_AT(top_ones, l) =                                           \
                ones_mask((int)((m[l] - 1) % WORD_BITS) + 1);                \
            LANE_AT(msb, l) = (uint64_t)1 << ((m[l] - 1) % WORD_BITS);       \
        }                                                                    \
                                                                             \
        /* Row 0, gathering the PM column. */                                \
        for (Py_ssize_t w = 0; w < words; w++)                               \
            row[n * words + w] = low[w] = w == top ? top_ones : ones;        \
        for (Py_ssize_t i = n - 1; i >= 0; i--) {                            \
            LANE carry = zero;                                               \
            for (Py_ssize_t w = 0; w < words; w++) {                         \
                LANE p = zero;                                               \
                for (int l = 0; l < LANES; l++)                              \
                    LANE_AT(p, l) = masks[l][text[l][i] * words + w];        \
                pm[i * words + w] = p;                                       \
                LANE c = (low[w] << 1) | carry | p;                          \
                carry = low[w] >> (WORD_BITS - 1);                           \
                if (w == top)                                                \
                    c &= top_ones;                                           \
                row[i * words + w] = low[w] = c;                             \
            }                                                                \
            hit_low &= low[top];                                             \
        }                                                                    \
        for (int l = 0; l < LANES; l++) {                                    \
            distance[l] = !(LANE_AT(hit_low, l) & LANE_AT(msb, l)) ? 0       \
                          : cap[l] == 0                            ? -1      \
                                                                   : -2;     \
            open -= distance[l] != -2;                                       \
        }                                                                    \
                                                                             \
        for (Py_ssize_t d = 1; open > 0; d += 2) {                           \
            /* Column n of every row is all-ones. */                         \
            LANE carry = zero;                                               \
            for (Py_ssize_t w = 0; w < words; w++) {                         \
                low[w] = high[w] = w == top ? top_ones : ones;               \
                both_below[w] = low[w] & ((low[w] << 1) | carry);            \
                both_low[w] = both_below[w];                                 \
                carry = low[w] >> (WORD_BITS - 1);                           \
            }                                                                \
            /* Column n - 1 of row d alone; row d + 1 starts a column      \
             * later, and writes its column i + 1 after row d has read     \
             * column i of the row below. */                                 \
            hit_low = NAME##_low_cell(row + (n - 1) * words,                 \
                                      pm + (n - 1) * words, words, low,      \
                                      both_below);                           \
            hit_high = ones;                                                 \
            for (Py_ssize_t i = n - 2; i >= 0; i--) {                        \
                hit_high &= NAME##_high_cell(row + (i + 1) * words,          \
                                             pm + (i + 1) * words, words,    \
                                             low, high, both_low);           \
                hit_low &= NAME##_low_cell(row + i * words, pm + i * words,  \
                                           words, low, both_below);          \
            }                                                                \
            hit_high &= NAME##_high_cell(row, pm, words, low, high,          \
                                         both_low);                          \
            for (int l = 0; l < LANES; l++) {                                \
                if (distance[l] != -2)                                       \
                    continue;                                                \
                if (!(LANE_AT(hit_low, l) & LANE_AT(msb, l)))                \
                    distance[l] = d;                                         \
                else if (d + 1 <= cap[l] &&                                  \
                         !(LANE_AT(hit_high, l) & LANE_AT(msb, l)))          \
                    distance[l] = d + 1;                                     \
                else if (d + 1 >= cap[l])                                    \
                    distance[l] = -1;                                        \
                else                                                         \
                    continue;                                                \
                open--;                                                      \
            }                                                                \
        }                                                                    \
    }                                                                        \
                                                                             \
    HOT_ENTRY                                                                \
    static void NAME(const uint8_t *const *text, Py_ssize_t n,               \
                     const uint64_t *const *masks, Py_ssize_t words,         \
                     const Py_ssize_t *m, const Py_ssize_t *cap,             \
                     uint64_t *scratch, Py_ssize_t *distance)                \
    {                                                                        \
        LANE *const row = (LANE *)scratch;                                   \
        LANE registers[4 * 4];                                               \
        switch (words) {                                                     \
        case 1:                                                              \
            NAME##_words(text, n, masks, 1, m, cap, row, registers,          \
                         distance);                                          \
            break;                                                           \
        case 2:                                                              \
            NAME##_words(text, n, masks, 2, m, cap, row, registers,          \
                         distance);                                          \
            break;                                                           \
        case 3:                                                              \
            NAME##_words(text, n, masks, 3, m, cap, row, registers,          \
                         distance);                                          \
            break;                                                           \
        case 4:                                                              \
            NAME##_words(text, n, masks, 4, m, cap, row, registers,          \
                         distance);                                          \
            break;                                                           \
        default:                                                             \
            NAME##_words(text, n, masks, words, m, cap, row,                 \
                         row + (2 * n + 1) * words, distance);               \
        }                                                                    \
    }

DEFINE_FIRST_HIT(first_hit, lane1, 1)
DEFINE_FIRST_HIT(first_hit2, lane2, 2)

/* The pieces pass: whether some piece of the pattern occurs exactly in
 * text[0 : n]. The m-symbol pattern is cut into cap + 1 (<= m) contiguous
 * pieces, piece j its symbols [j * m / (cap + 1), (j + 1) * m / (cap + 1)).
 * If the pattern aligns within d <= cap edits, one piece holds none of
 * them and occurs exactly (the pigeonhole principle; a substitution or a
 * pattern deletion falls in one piece, a text insertion in at most one).
 * So where this answers 0, no distance row up to cap hits in any column.
 * map_many's filter does without it: its candidates come from seed hits
 * and already share an exact k-mer with the read, so it would almost never
 * answer one, and map_many aligns each candidate first anyway.
 *
 * Row 0's reversed-text Shift-And over the same masks, every piece in one
 * state: after the shift, carried across words as in dc_sweep, each
 * piece's start bit (its last symbol, bit m - hi) is forced to a fresh 0,
 * so no piece continues the one below it, and a column where some piece's
 * top bit (its first symbol, bit m - 1 - lo) is 0 starts an exact
 * occurrence of that piece. Columns AND into `seen`, whose tops are read
 * every PIECES_CHECK columns (a read every column made the pass ~16 %
 * slower), so the pass stops within that many columns of the first hit.
 * Bits above m - 1 are never read. state, keep (the start bits' complement), tops and seen
 * are `words` words each, end to end in `scratch`. */
#define PIECES_CHECK 8

static inline __attribute__((always_inline)) int
pieces_words(const uint8_t *text, Py_ssize_t n, const uint64_t *masks,
             Py_ssize_t words, Py_ssize_t m, Py_ssize_t cap,
             uint64_t *scratch)
{
    uint64_t *const state = scratch, *const keep = state + words;
    uint64_t *const tops = keep + words, *const seen = tops + words;
    for (Py_ssize_t w = 0; w < words; w++) {
        state[w] = keep[w] = seen[w] = ~(uint64_t)0;
        tops[w] = 0;
    }
    /* lo = j * m / (cap + 1) without the product: q whole symbols a piece
     * and r / (cap + 1) of one, the fraction carried in `rest`. */
    const Py_ssize_t q = m / (cap + 1), r = m % (cap + 1);
    Py_ssize_t lo = 0, rest = 0;
    for (Py_ssize_t j = 0; j <= cap; j++) {
        Py_ssize_t hi = lo + q;
        rest += r;
        if (rest > cap) {
            rest -= cap + 1;
            hi++;
        }
        const Py_ssize_t top = m - 1 - lo, start = m - hi;
        tops[top / WORD_BITS] |= (uint64_t)1 << (top % WORD_BITS);
        keep[start / WORD_BITS] &= ~((uint64_t)1 << (start % WORD_BITS));
        lo = hi;
    }
    for (Py_ssize_t i = n - 1; i >= 0; i--) {
        const uint64_t *pm = masks + (Py_ssize_t)text[i] * words;
        uint64_t carry = 0;
        for (Py_ssize_t w = 0; w < words; w++) {
            const uint64_t v = (((state[w] << 1) | carry) & keep[w]) | pm[w];
            carry = state[w] >> (WORD_BITS - 1);
            state[w] = v;
            seen[w] &= v;
        }
        if (i % PIECES_CHECK == 0) {
            uint64_t hit = 0;
            for (Py_ssize_t w = 0; w < words; w++) {
                hit |= tops[w] & ~seen[w];
                seen[w] = ~(uint64_t)0;
            }
            if (hit)
                return 1;
        }
    }
    return 0;
}

/* pieces_words with the word count a constant up to four words, its four
 * arrays in registers; `scratch` holds them (4 * words) above that. */
HOT_ENTRY
static int
pieces_hit(const uint8_t *text, Py_ssize_t n, const uint64_t *masks,
           Py_ssize_t words, Py_ssize_t m, Py_ssize_t cap, uint64_t *scratch)
{
    uint64_t registers[4 * 4];
    switch (words) {
    case 1: return pieces_words(text, n, masks, 1, m, cap, registers);
    case 2: return pieces_words(text, n, masks, 2, m, cap, registers);
    case 3: return pieces_words(text, n, masks, 3, m, cap, registers);
    case 4: return pieces_words(text, n, masks, 4, m, cap, registers);
    default: return pieces_words(text, n, masks, words, m, cap, scratch);
    }
}

/* scan_many and edit_distance_many: one sweep per pair, scratch allocated
 * once for the largest; None for a batch holding a foreign or empty
 * pattern, for which the pure scan raises. A pair whose k caps below its
 * pattern length runs the pieces pass first, and one with no piece in its
 * text is answered there: no hit (scan_many), -1 (edit_distance_many).
 * edit_distance_many answers -1 where no row up to k hits, and gives two
 * pairs one first_hit2 sweep when they are consecutive among the pairs it
 * sweeps (text not empty, pieces pass survived) and share n and word
 * count; any other pair sweeps alone. A pair the pass answers takes no
 * lane and leaves the pair waiting for a partner waiting. */
HOT_ENTRY
static PyObject *
sweep_many(PyObject *args, int mode)
{
    PyObject *pairs;
    const char *text_table, *pattern_table;
    Py_ssize_t text_length, pattern_length, n_symbols, k;
    int first_match_only = 0;

    if (!PyArg_ParseTuple(args,
                          mode == SWEEP_MIN ? "Oy#y#nn" : "Oy#y#nnp", &pairs,
                          &text_table, &text_length, &pattern_table,
                          &pattern_length, &n_symbols, &k, &first_match_only))
        return NULL;
    if (first_match_only)
        mode = SWEEP_FIRST;

    PyObject *result = NULL;
    uint64_t *rows = NULL, *masks = NULL;
    Py_ssize_t *best = NULL;
    Py_ssize_t *answer = NULL;
    Coded coded;

    const Side sides[2] = {{text_table, text_length, 0},
                           {pattern_table, pattern_length, 1}};
    if (code_batch(pairs, sides, 2, n_symbols, &coded) < 0)
        goto done;
    if (k < 0) {
        PyErr_SetString(PyExc_ValueError, "k must be non-negative");
        goto done;
    }
    const Py_ssize_t count = coded.count, *at = coded.at;
    /* (n + 3) * words per lane covers dc_sweep's two rows of (n + 1) *
     * words and first_hit2's (2n + 5) * words lane pairs. */
    Py_ssize_t row = 1;
    for (Py_ssize_t i = 0; i < count; i++) {
        const Py_ssize_t n = at[2 * i + 1] - at[2 * i];
        const Py_ssize_t words =
            (at[2 * i + 2] - at[2 * i + 1] + WORD_BITS - 1) / WORD_BITS;
        if (words == 0) { /* an empty pattern, for which pure raises */
            coded.refused = 1;
            break;
        }
        if (n > PY_SSIZE_T_MAX / 4 / words - 3) {
            PyErr_NoMemory();
            goto done;
        }
        if ((n + 3) * words > row)
            row = (n + 3) * words;
    }
    if (coded.refused) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    const Py_ssize_t table = (n_symbols + 1) *
                             ((coded.longest[1] + WORD_BITS - 1) / WORD_BITS);
    if ((rows = alloc_product(row, 4, sizeof(uint64_t))) == NULL ||
        (masks = alloc_product(table, 2, sizeof(uint64_t))) == NULL ||
        (best = alloc_product(mode == SWEEP_MIN ? 0 : at[2 * count],
                              sizeof(Py_ssize_t), 1)) == NULL ||
        (answer = alloc_product(count, sizeof(Py_ssize_t), 1)) == NULL)
        goto done;

    const uint8_t *codes = coded.codes;
    Py_BEGIN_ALLOW_THREADS
    /* Lane 0 holds a pair waiting for a partner (wait >= 0): its text,
     * pattern length, cap and masks (in either of masks' two tables; a new
     * pair builds its rows in the other). */
    const uint8_t *lane_text[2];
    const uint64_t *lane_masks[2] = {masks, masks + table};
    Py_ssize_t lane_m[2], lane_cap[2], paired[2];
    Py_ssize_t wait = -1, wait_n = 0, wait_words = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        const Py_ssize_t t0 = at[2 * i], p0 = at[2 * i + 1];
        const Py_ssize_t n = p0 - t0, m = at[2 * i + 2] - p0;
        const Py_ssize_t words = (m + WORD_BITS - 1) / WORD_BITS;
        const Py_ssize_t cap = k < m ? k : m;
        if (mode != SWEEP_MIN) {
            for (Py_ssize_t j = 0; j < n; j++)
                best[t0 + j] = -1;
            build_masks(codes + p0, m, n_symbols, words, masks);
            if (cap == m ||
                pieces_hit(codes + t0, n, masks, words, m, cap, rows))
                dc_sweep_any(codes + t0, n, masks, words, m, cap, mode,
                             rows, best + t0);
            answer[i] = 0;
            continue;
        }
        if (n == 0) {
            answer[i] = -1; /* no column, no hit */
            continue;
        }
        uint64_t *mine = masks + (wait >= 0 && lane_masks[0] == masks) * table;
        build_masks(codes + p0, m, n_symbols, words, mine);
        if (cap < m && !pieces_hit(codes + t0, n, mine, words, m, cap, rows)) {
            answer[i] = -1;
            continue;
        }
        const int partner = wait >= 0 && n == wait_n && words == wait_words;
        if (wait >= 0 && !partner)
            first_hit(lane_text, wait_n, lane_masks, wait_words, lane_m,
                      lane_cap, rows, answer + wait);
        lane_text[partner] = codes + t0;
        lane_masks[partner] = mine;
        lane_m[partner] = m;
        lane_cap[partner] = cap;
        if (partner) {
            first_hit2(lane_text, n, lane_masks, words, lane_m, lane_cap,
                       rows, paired);
            answer[wait] = paired[0];
            answer[i] = paired[1];
            wait = -1;
        } else {
            wait = i;
            wait_n = n;
            wait_words = words;
        }
    }
    if (wait >= 0)
        first_hit(lane_text, wait_n, lane_masks, wait_words, lane_m,
                  lane_cap, rows, answer + wait);
    Py_END_ALLOW_THREADS

    result = PyList_New(count);
    if (result == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *entry;
        if (mode == SWEEP_MIN) {
            entry = PyLong_FromSsize_t(answer[i]);
        } else { /* hits in decreasing start; the first is first_match's */
            const Py_ssize_t t0 = at[2 * i];
            entry = PyList_New(0);
            for (Py_ssize_t j = at[2 * i + 1] - t0 - 1;
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
    coded_free(&coded);
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

/* NAME(text, n, masks, m, rows, pm_column, distance): distance rows in
 * increasing d for LANES windows at once, lane l's window text[l][0 : n]
 * against masks[l], the single-word rows of an m[l]-symbol pattern.
 * distance[l] becomes the first d whose MSB is 0 at text iteration 0 in
 * lane l — the window's edit distance and its k — or -1 if no row up to
 * m[l] hits (impossible for n >= 1). The sweep stops once every lane has
 * hit; a lane that hit earlier is swept along, and nothing of it above its
 * distance is ever read.
 *
 * Lanes are interleaved, [row][column][lane]: R[d] after text iteration i
 * in lane l is rows[(d * (n + 1) + i) * LANES + l], entry n the initial
 * all-ones state, and pm_column[i * LANES + l] is lane l's PM[text[i]].
 * Row 0 is swept alone and fills pm_column; after it rows d and d + 1 share
 * one sweep, row d + 1 a column behind row d so that its inputs are still
 * in registers (the Fig. 5 wavefront, two PEs wide). Row d + 1 is wasted
 * when row d hits. The pair (m, m + 1) can start, so rows needs
 * (max m + 2) * (n + 1) * LANES words and pm_column n * LANES, both
 * aligned as a LANE.
 *
 *   R[d][i] = R[d-1][i+1] & (R[d-1][i+1] << 1) & (R[d-1][i] << 1)
 *             & ((R[d][i+1] << 1) | PM[text[i]])
 *
 * R[d-1][i+1] is clamped to m bits, so the shifted terms need no mask.
 * Written once over the lane type and instantiated per lane count, the way
 * dc_sweep is per word count: dc_rows (one window: dc_window, map_many,
 * and align_many's windows that run alone) and dc_rows2 (align_many's
 * paired windows). */
#define DEFINE_DC_ROWS(NAME, LANE, LANES)                                    \
    static void NAME(const uint8_t *const *text, Py_ssize_t n,               \
                     const uint64_t *const *masks, const Py_ssize_t *m,      \
                     uint64_t *rows, uint64_t *pm_column,                    \
                     Py_ssize_t *distance)                                   \
    {                                                                        \
        LANE *const r = (LANE *)rows, *const pm = (LANE *)pm_column;         \
        const Py_ssize_t stride = n + 1;                                     \
        LANE ones, msb;                                                      \
        Py_ssize_t top = 0, open = LANES, stop[LANES];                       \
        for (int l = 0; l < LANES; l++) {                                    \
            LANE_AT(ones, l) = ones_mask((int)m[l]);                         \
            LANE_AT(msb, l) = (uint64_t)1 << (m[l] - 1);                     \
            stop[l] = -1;                                                    \
            if (m[l] > top)                                                  \
                top = m[l];                                                  \
        }                                                                    \
                                                                             \
        LANE cur = ones;                                                     \
        r[n] = ones;                                                         \
        for (Py_ssize_t i = n - 1; i >= 0; i--) {                            \
            LANE p = ones;                                                   \
            for (int l = 0; l < LANES; l++)                                  \
                LANE_AT(p, l) = masks[l][text[l][i]];                        \
            pm[i] = p;                                                       \
            cur = ((cur << 1) | p) & ones;                                   \
            r[i] = cur;                                                      \
        }                                                                    \
        for (int l = 0; l < LANES; l++)                                      \
            if (!(LANE_AT(cur, l) & LANE_AT(msb, l))) {                      \
                stop[l] = 0;                                                 \
                open--;                                                      \
            }                                                                \
                                                                             \
        for (Py_ssize_t d = 1; open > 0 && d <= top; d += 2) {               \
            const LANE *below = r + (d - 1) * stride;                        \
            LANE *low = r + d * stride;                                      \
            LANE *high = low + stride;                                       \
            low[n] = high[n] = ones;                                         \
            /* Column n - 1 of the low row alone; the high row starts a      \
             * column later. both_x is c & (c << 1), the deletion and        \
             * substitution terms a cell c of row x hands to the row above   \
             * it. */                                                        \
            LANE both_low = ones & (ones << 1);                              \
            LANE shifted = below[n - 1] << 1;                                \
            LANE low_next = both_low & shifted & ((ones << 1) | pm[n - 1]);  \
            LANE both_below = below[n - 1] & shifted;                        \
            LANE high_next = ones;                                           \
            low[n - 1] = low_next;                                           \
            /* Entering column i: low_next = R[d][i+1], high_next =          \
             * R[d+1][i+2], both_below is of R[d-1][i+1] and both_low of     \
             * R[d][i+2]. */                                                 \
            for (Py_ssize_t i = n - 2; i >= 0; i--) {                        \
                shifted = below[i] << 1;                                     \
                const LANE low_cur =                                         \
                    both_below & shifted & ((low_next << 1) | pm[i]);        \
                both_below = below[i] & shifted;                             \
                low[i] = low_cur;                                            \
                shifted = low_next << 1;                                     \
                high_next =                                                  \
                    both_low & shifted & ((high_next << 1) | pm[i + 1]);     \
                both_low = low_next & shifted;                               \
                high[i + 1] = high_next;                                     \
                low_next = low_cur;                                          \
            }                                                                \
            high[0] =                                                        \
                both_low & (low_next << 1) & ((high_next << 1) | pm[0]);     \
            for (int l = 0; l < LANES; l++) {                                \
                if (stop[l] >= 0)                                            \
                    continue;                                                \
                if (!(LANE_AT(low_next, l) & LANE_AT(msb, l)))               \
                    stop[l] = d;                                             \
                else if (!(LANE_AT(high[0], l) & LANE_AT(msb, l)))           \
                    stop[l] = d + 1;                                         \
                else                                                         \
                    continue;                                                \
                open--;                                                      \
            }                                                                \
        }                                                                    \
        for (int l = 0; l < LANES; l++)                                      \
            distance[l] = stop[l];                                           \
    }

DEFINE_DC_ROWS(dc_rows, lane1, 1)
DEFINE_DC_ROWS(dc_rows2, lane2, 2)

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
    const uint8_t *window = (const uint8_t *)text.buf;
    const uint64_t *window_masks = masks;
    Py_ssize_t distance;
    Py_BEGIN_ALLOW_THREADS
    build_masks((const uint8_t *)pattern.buf, m, n_symbols, 1, masks);
    dc_rows(&window, n, &window_masks, &m, rows, rows + (m + 2) * (n + 1),
            &distance);
    Py_END_ALLOW_THREADS

    if (distance < 0) {
        result = Py_NewRef(Py_None);
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

/* A traceback program (genasm_tb's opcodes, each checked to be <= 5 before
 * the GIL is released) and whether OP_MATCH is its first opcode that is not
 * an extend. When it is, MATCH wins every cell where it can be taken unless
 * the previous op was I or D (an extend may then fire first): no error case
 * is checked ahead of it, and the extends need a gap to continue. */
typedef struct {
    const uint8_t *ops;
    Py_ssize_t len;
    int match_leads;
} TbProgram;

/* Check a program buffer's opcodes; 0 with *checked filled, or -1 with
 * ValueError set. */
static int
check_program(const Py_buffer *program, TbProgram *checked)
{
    const Py_ssize_t bad = first_code_above((const uint8_t *)program->buf,
                                            program->len, OP_DELETION_EXTEND);
    if (bad >= 0) {
        PyErr_Format(PyExc_ValueError,
                     "traceback opcode at position %zd out of range", bad);
        return -1;
    }
    checked->ops = (const uint8_t *)program->buf;
    checked->len = program->len;
    checked->match_leads = 0;
    for (Py_ssize_t p = 0; p < program->len; p++) {
        const uint8_t opcode = checked->ops[p];
        if (opcode != OP_INSERTION_EXTEND && opcode != OP_DELETION_EXTEND) {
            checked->match_leads = opcode == OP_MATCH;
            break;
        }
    }
    return 0;
}

/* traceback_window's opcode-program walk over one lane of dc_rows' or
 * dc_rows2's rows: with `lanes` the instance's lane count and rows and
 * pm_column pointing at the lane's first entry, R[d] after text iteration i
 * is rows[(d * (n + 1) + i) * lanes] and PM[text[i]] is
 * pm_column[i * lanes]. lanes is a constant at every call, so each lane
 * count gets its own walk. Appends expanded CIGAR chars to ops and returns
 * their count, or -1 on a dead end (impossible for well-formed rows — the
 * batch goes back to the pure loop, which raises TracebackError).
 * Every op consumes a text or a pattern character, so ops must hold
 * min(2 * consume_limit, n + m) chars.
 *
 * Under a program whose MATCH leads, a walk not continuing a gap takes the
 * whole run of matching cells along the diagonal in one tight loop — the
 * cell test of the dispatch below, nothing else — bounded by the consume
 * limit and both sequences' ends, and hands the first cell that does not
 * match to the dispatch. The ops are the ones the dispatch would pick. */
static inline __attribute__((always_inline)) Py_ssize_t
tb_core(const uint64_t *rows, const uint64_t *pm_column, Py_ssize_t lanes,
        Py_ssize_t n, Py_ssize_t m, Py_ssize_t edit_distance,
        Py_ssize_t consume_limit, const TbProgram *program, char *ops,
        TbState *state)
{
    const uint64_t ones = ones_mask((int)m);
    const Py_ssize_t stride = (n + 1) * lanes;
    Py_ssize_t pattern_index = m - 1;
    uint64_t pattern_bit = (uint64_t)1 << pattern_index;
    Py_ssize_t text_index = 0;
    Py_ssize_t cur_error = edit_distance;
    Py_ssize_t text_consumed = 0, pattern_consumed = 0, errors_used = 0;
    char prev = 0;
    Py_ssize_t out = 0;
    /* R[cur_error] after iteration text_index, and PM[text[text_index]]:
     * each op steps them, so no cell address is recomputed. */
    const uint64_t *cell = rows + edit_distance * stride;
    const uint64_t *pm = pm_column;

    while (text_consumed < consume_limit && pattern_consumed < consume_limit) {
        if (pattern_index < 0 || text_index >= n)
            break;
        if (program->match_leads && prev != 'I' && prev != 'D') {
            Py_ssize_t run = consume_limit - (text_consumed > pattern_consumed
                                                  ? text_consumed
                                                  : pattern_consumed);
            if (run > n - text_index)
                run = n - text_index;
            if (run > pattern_index + 1)
                run = pattern_index + 1;
            /* k steps over the lane's cells; bit is pattern_index - r's */
            const Py_ssize_t end = run * lanes;
            Py_ssize_t k = 0;
            uint64_t bit = pattern_bit;
            while (k < end && !(((cell[k + lanes] << 1) | pm[k]) & bit)) {
                k += lanes;
                bit >>= 1;
            }
            const Py_ssize_t r = k / lanes;
            if (r > 0) {
                cell += k;
                pm += k;
                memset(ops + out, 'M', (size_t)r);
                out += r;
                prev = 'M';
                text_index += r;
                text_consumed += r;
                pattern_index -= r;
                pattern_consumed += r;
                if (r == run)
                    continue; /* a bound is reached: the walk ends */
                pattern_bit = bit;
            }
        }
        const uint64_t mvec = ((cell[lanes] << 1) | *pm) & ones;
        uint64_t svec, ivec, dvec;
        if (cur_error) {
            dvec = cell[lanes - stride];
            svec = (dvec << 1) & ones;
            ivec = (cell[-stride] << 1) & ones;
        } else {
            svec = ivec = dvec = ones;
        }
        int picked = -1;
        for (Py_ssize_t p = 0; p < program->len; p++) {
            const uint8_t opcode = program->ops[p];
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
            cell += lanes;
            pm += lanes;
            text_index++;
            text_consumed++;
            pattern_index--;
            pattern_bit >>= 1;
            pattern_consumed++;
        } else if (picked == OP_SUBSTITUTION) {
            ops[out++] = 'S';
            prev = 'S';
            cell += lanes - stride;
            pm += lanes;
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
            cell -= stride;
            cur_error--;
            errors_used++;
            pattern_index--;
            pattern_bit >>= 1;
            pattern_consumed++;
        } else { /* deletion open / extend */
            ops[out++] = 'D';
            prev = 'D';
            cell += lanes - stride;
            pm += lanes;
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

/* The single-word rows of a window over pattern[j : j + sm] (sm <= 64) out
 * of the whole pattern's table (build_masks of all m codes in `words`
 * words): pattern[j + t] sits at bit m - 1 - j - t of the table and at bit
 * sm - 1 - t of the window, so each window row is the sm table bits from
 * offset = m - j - sm up, a two-word funnel shift. Equal, fallback row
 * included, to build_masks(pattern + j, sm, n_symbols, 1, masks). */
static inline void
slice_masks(const uint64_t *table, Py_ssize_t words, Py_ssize_t offset,
            Py_ssize_t sm, Py_ssize_t n_symbols, uint64_t *masks)
{
    const uint64_t *low = table + offset / WORD_BITS;
    const int shift = (int)(offset % WORD_BITS);
    const uint64_t keep = ones_mask((int)sm);
    if (shift + sm > WORD_BITS) /* the window straddles a table word */
        for (Py_ssize_t s = 0; s <= n_symbols; s++, low += words)
            masks[s] = ((low[0] >> shift) | (low[1] << (WORD_BITS - shift))) &
                       keep;
    else
        for (Py_ssize_t s = 0; s <= n_symbols; s++, low += words)
            masks[s] = (low[0] >> shift) & keep;
}

/* ------------------------------------------------------------------ */
/* Whole-pair windowed align loop (AlignmentEngine.align_batch parity) */
/* ------------------------------------------------------------------ */

typedef struct {
    Py_ssize_t ops_len;
    Py_ssize_t text_consumed;
    Py_ssize_t edits; /* non-match ops: the alignment's edit distance */
} AlignedPair;

/* One pair's window loop, stepped a window at a time: the pair, where its
 * loop stands and its open window. table holds the whole pattern's mask
 * rows, build_masks' rows of its m codes in ceil(m / 64) words, built once
 * per pattern by the caller; each window slices its single-word rows out of
 * it into masks (slice_masks) instead of rebuilding them from the window's
 * codes. ops must hold n + m chars: every op consumes a text or pattern
 * character and neither sequence is consumed past its end. */
typedef struct {
    const uint8_t *text;
    const uint64_t *table;
    char *ops;
    Py_ssize_t n, m;
    Py_ssize_t cur_text, cur_pattern, out, edits;
    const uint8_t *window; /* the open window: text + cur_text, */
    Py_ssize_t sn, sm;     /* its text and pattern lengths */
    uint64_t masks[MAX_SYMBOLS + 1];
} PairLoop;

static void
pair_start(PairLoop *pair, const uint8_t *text, Py_ssize_t n,
           const uint64_t *table, Py_ssize_t m, char *ops)
{
    pair->text = text;
    pair->table = table;
    pair->ops = ops;
    pair->n = n;
    pair->m = m;
    pair->cur_text = pair->cur_pattern = pair->out = pair->edits = 0;
}

/* Open the pair's next window: 1 with window, sn, sm and masks set, or 0
 * when the pair is done. A text that runs out first ends the pair: every
 * remaining pattern character is an insertion relative to the reference. */
static int
window_open(PairLoop *pair, Py_ssize_t window_size, Py_ssize_t n_symbols)
{
    const Py_ssize_t text_left = pair->n - pair->cur_text;
    const Py_ssize_t pattern_left = pair->m - pair->cur_pattern;
    if (pattern_left <= 0)
        return 0;
    if (text_left <= 0) {
        memset(pair->ops + pair->out, 'I', (size_t)pattern_left);
        pair->out += pattern_left;
        pair->edits += pattern_left;
        pair->cur_pattern = pair->m;
        return 0;
    }
    pair->window = pair->text + pair->cur_text;
    pair->sn = text_left < window_size ? text_left : window_size;
    pair->sm = pattern_left < window_size ? pattern_left : window_size;
    slice_masks(pair->table, (pair->m + WORD_BITS - 1) / WORD_BITS,
                pattern_left - pair->sm, pair->sm, n_symbols, pair->masks);
    return 1;
}

/* Close the open window: walk its rows (one lane of `lanes`, see tb_core)
 * from its edit distance, append the ops and advance. 0, or -1 where the
 * generic loop raises (unalignable window, dead end, no progress) — the
 * caller then refuses the batch and the pure loop raises. */
static inline __attribute__((always_inline)) int
window_close(PairLoop *pair, const uint64_t *rows, const uint64_t *pm_column,
             Py_ssize_t lanes, Py_ssize_t edit_distance,
             Py_ssize_t consume_limit, const TbProgram *program)
{
    if (edit_distance < 0)
        return -1;
    TbState state;
    memset(&state, 0, sizeof(state));
    const Py_ssize_t produced =
        tb_core(rows, pm_column, lanes, pair->sn, pair->sm, edit_distance,
                consume_limit, program, pair->ops + pair->out, &state);
    if (produced < 0 ||
        (state.text_consumed == 0 && state.pattern_consumed == 0))
        return -1;
    pair->out += produced;
    pair->edits += state.errors_used;
    pair->cur_pattern += state.pattern_consumed;
    pair->cur_text += state.text_consumed;
    return 0;
}

/* Run the open window alone: dc_rows into rows (W + 2 rows of W + 1) and
 * pm_column (W), then its walk. */
static int
window_run(PairLoop *pair, uint64_t *rows, uint64_t *pm_column,
           Py_ssize_t consume_limit, const TbProgram *program)
{
    const uint64_t *masks = pair->masks;
    Py_ssize_t distance;
    dc_rows(&pair->window, pair->sn, &masks, &pair->sm, rows, pm_column,
            &distance);
    return window_close(pair, rows, pm_column, 1, distance, consume_limit,
                        program);
}

/* The window loop for one pair (map_many's align step); returns 0 with the
 * expanded CIGAR in ops, or -1 where the generic loop raises — the caller
 * refuses the batch. pair is the loop's scratch. */
static int
align_core(const uint8_t *text, Py_ssize_t n, const uint64_t *table,
           Py_ssize_t m, Py_ssize_t n_symbols, Py_ssize_t window_size,
           Py_ssize_t overlap, const TbProgram *program, uint64_t *rows,
           uint64_t *pm_column, PairLoop *pair, char *ops,
           AlignedPair *aligned)
{
    pair_start(pair, text, n, table, m, ops);
    while (window_open(pair, window_size, n_symbols))
        if (window_run(pair, rows, pm_column, window_size - overlap,
                       program) < 0)
            return -1;
    aligned->ops_len = pair->out;
    aligned->text_consumed = pair->cur_text;
    aligned->edits = pair->edits;
    return 0;
}

/* align_many's batch, which its two lanes draw pairs from in order. */
typedef struct {
    const Coded *coded;
    Py_ssize_t next; /* the first pair no lane has taken */
    Py_ssize_t n_symbols, window_size;
    char *ops; /* pair i writes its n + m ops where its text starts */
    AlignedPair *aligned;
} AlignBatch;

/* Open the next window of a lane that runs pair *pair (-1: none) with its
 * own mask table. A pair that is done is recorded and the lane takes the
 * batch's next pair; an empty pattern is done at once, ("", 0, 0). 1 with
 * a window open, 0 when the batch has no pair left for the lane. */
static int
lane_open(AlignBatch *batch, PairLoop *lane, Py_ssize_t *pair,
          uint64_t *table)
{
    for (;;) {
        if (*pair >= 0) {
            if (window_open(lane, batch->window_size, batch->n_symbols))
                return 1;
            AlignedPair *done = &batch->aligned[*pair];
            done->ops_len = lane->out;
            done->text_consumed = lane->cur_text;
            done->edits = lane->edits;
            *pair = -1;
        }
        if (batch->next >= batch->coded->count)
            return 0;
        const Py_ssize_t i = batch->next++;
        const Py_ssize_t *at = batch->coded->at + 2 * i;
        const uint8_t *codes = batch->coded->codes;
        const Py_ssize_t m = at[2] - at[1];
        build_masks(codes + at[1], m, batch->n_symbols,
                    (m + WORD_BITS - 1) / WORD_BITS, table);
        pair_start(lane, codes + at[0], at[1] - at[0], table, m,
                   batch->ops + at[0]);
        *pair = i;
    }
}

/* align_many runs the batch in two lanes, each a pair's window loop; a lane
 * whose pair finishes takes the next pair. When both lanes' open windows
 * have the same text length, one dc_rows2 sweep computes both (each lane
 * with its own pattern length and stop row) and each lane walks its own
 * rows; any other window runs alone. A window that fails stops the batch:
 * it comes back None, as does a batch holding a foreign pattern. */
static PyObject *
py_align_many(PyObject *self, PyObject *args)
{
    PyObject *pairs;
    const char *text_table, *pattern_table;
    Py_ssize_t text_length, pattern_length, n_symbols, window_size, overlap;
    Py_buffer program;

    if (!PyArg_ParseTuple(args, "Oy#y#nnny*", &pairs, &text_table,
                          &text_length, &pattern_table, &pattern_length,
                          &n_symbols, &window_size, &overlap, &program))
        return NULL;

    PyObject *result = NULL;
    char *ops = NULL;
    uint64_t *rows = NULL, *tables = NULL;
    AlignedPair *aligned = NULL;
    TbProgram checked;
    Coded coded;

    const Side sides[2] = {{text_table, text_length, 0},
                           {pattern_table, pattern_length, 1}};
    if (code_batch(pairs, sides, 2, n_symbols, &coded) < 0)
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
    if (check_program(&program, &checked) < 0)
        goto done;

    /* Pair i writes its ops where its text starts: n + m chars, its two
     * sides' codes, so the arena is as long as the coded batch. The pure
     * loop's past-the-end check cannot fire here: a window never holds
     * more text than remains. */
    const Py_ssize_t count = coded.count;
    const Py_ssize_t words = (coded.longest[1] + WORD_BITS - 1) / WORD_BITS;
    if ((ops = alloc_product(coded.at[2 * count], 1, 1)) == NULL ||
        /* dc_rows2's two lanes of W + 2 rows of W + 1, and the interleaved
         * PM column behind them */
        (rows = alloc_product(window_size + 1, 2 * (window_size + 3),
                              sizeof(uint64_t))) == NULL ||
        /* each lane's pattern mask table, sized for the longest */
        (tables = alloc_product(n_symbols + 1, words,
                                2 * sizeof(uint64_t))) == NULL ||
        (aligned = alloc_product(count, sizeof(AlignedPair), 1)) == NULL)
        goto done;

    AlignBatch batch = {
        .coded = &coded,
        .next = 0,
        .n_symbols = n_symbols,
        .window_size = window_size,
        .ops = ops,
        .aligned = aligned,
    };
    const Py_ssize_t consume_limit = window_size - overlap;
    uint64_t *pm_column = rows + 2 * (window_size + 2) * (window_size + 1);
    PairLoop lanes[2];
    Py_ssize_t pair[2] = {-1, -1};
    Py_BEGIN_ALLOW_THREADS
    while (!coded.refused) {
        int open[2];
        for (int l = 0; l < 2; l++)
            open[l] = lane_open(&batch, &lanes[l], &pair[l],
                                tables + l * (n_symbols + 1) * words);
        if (!open[0] && !open[1])
            break;
        if (open[0] && open[1] && lanes[0].sn == lanes[1].sn) {
            const uint8_t *windows[2] = {lanes[0].window, lanes[1].window};
            const uint64_t *masks[2] = {lanes[0].masks, lanes[1].masks};
            const Py_ssize_t sm[2] = {lanes[0].sm, lanes[1].sm};
            Py_ssize_t distance[2];
            dc_rows2(windows, lanes[0].sn, masks, sm, rows, pm_column,
                     distance);
            for (int l = 0; l < 2; l++)
                coded.refused |= window_close(&lanes[l], rows + l,
                                              pm_column + l, 2, distance[l],
                                              consume_limit, &checked) < 0;
        } else {
            for (int l = 0; l < 2; l++)
                coded.refused |= open[l] &&
                                 window_run(&lanes[l], rows, pm_column,
                                            consume_limit, &checked) < 0;
        }
    }
    Py_END_ALLOW_THREADS
    if (coded.refused) { /* the pure loop raises */
        result = Py_NewRef(Py_None);
        goto done;
    }

    result = PyList_New(count);
    if (result == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *entry = Py_BuildValue(
            "(s#nn)", ops + coded.at[2 * i], aligned[i].ops_len,
            aligned[i].text_consumed, aligned[i].edits);
        if (entry == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyList_SET_ITEM(result, i, entry);
    }

done:
    free(ops);
    free(rows);
    free(tables);
    free(aligned);
    coded_free(&coded);
    PyBuffer_Release(&program);
    return result;
}

/* ------------------------------------------------------------------ */
/* K-mer index build and batch seeding (mapping/index.py, seeding.py)  */
/* ------------------------------------------------------------------ */

/* The index is four flat buffers (KmerIndex.codes / .starts / .positions /
 * .directory): the sorted distinct k-mer codes as uint64 (bits_per_symbol
 * bits per symbol, first symbol in the high bits — Alphabet.encode's
 * packing), len(codes) + 1 int64 starts, the int32 reference positions —
 * k-mer i occurs at positions[starts[i] : starts[i + 1]], ascending — and
 * the prefix directory: 2**p + 1 int32 entries, p = min(16, k * bits), where
 * entry j is the first code whose top p bits are >= j, so a lookup binary-
 * searches codes[directory[j] : directory[j + 1]] only. A k-mer holding the
 * sentinel code n_symbols (wildcard, foreign character) has no code.
 *
 * The build is a counting sort on that prefix. One pass rolls every k-mer
 * code and counts its hits per prefix into the directory; a prefix sum makes
 * the counts bucket offsets; a second pass places each (code, position) hit
 * in its bucket, in position order. Each bucket is then sorted by full code
 * with a stable merge sort (positions stay ascending within a code) through
 * scratch sized to the largest bucket, and its runs counted; a last walk
 * copies the runs that are not masked into the result, allocated at its
 * final size, and rewrites the directory. Time is O(n + sum b log b) over
 * bucket sizes b: linear while buckets stay small, O(n log n) at worst,
 * when one bucket holds every hit. Memory beside the result is 12 bytes a
 * hit, plus 12 bytes a hit of the largest bucket. */

#define DIRECTORY_BITS 16

/* Right shift that leaves a k-mer code's top min(16, k * bits) bits. */
static inline int
directory_shift(Py_ssize_t k, int bits)
{
    const int code_bits = (int)k * bits;
    return code_bits > DIRECTORY_BITS ? code_bits - DIRECTORY_BITS : 0;
}

/* The directory's entry count, 2**p + 1. */
static inline Py_ssize_t
directory_entries(Py_ssize_t k, int bits)
{
    return ((Py_ssize_t)1 << ((int)k * bits - directory_shift(k, bits))) + 1;
}

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

/* Roll every k-mer code of symbols[0:n] in position order. Without codes,
 * count the hits under each directory prefix; with them, place each hit at
 * its prefix's cursor and advance the cursor. */
static void
place_kmers(const uint8_t *symbols, Py_ssize_t n, Py_ssize_t n_symbols,
            Py_ssize_t k, int bits, int32_t *directory, uint64_t *codes,
            int32_t *positions)
{
    const uint64_t code_mask = ones_mask((int)k * bits);
    const int shift = directory_shift(k, bits);
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
            int32_t *cursor = &directory[code >> shift];
            if (codes != NULL) {
                codes[*cursor] = code;
                positions[*cursor] = (int32_t)(i - k + 1);
            }
            (*cursor)++;
        }
    }
}

#define SORT_RUN 32

/* Sort a bucket's parallel (code, position) hits by code, stably: insertion
 * sort on runs of SORT_RUN, then bottom-up merges between the bucket and
 * the scratch, which holds at least len entries of each. */
static void
sort_bucket(uint64_t *codes, int32_t *positions, Py_ssize_t len,
            uint64_t *scratch_codes, int32_t *scratch_positions)
{
    Py_ssize_t ordered = 1;
    while (ordered < len && codes[ordered - 1] <= codes[ordered])
        ordered++;
    if (ordered >= len)
        return;
    for (Py_ssize_t run = 0; run < len; run += SORT_RUN) {
        const Py_ssize_t end = run + SORT_RUN < len ? run + SORT_RUN : len;
        for (Py_ssize_t i = run + 1; i < end; i++) {
            const uint64_t code = codes[i];
            const int32_t position = positions[i];
            Py_ssize_t j = i;
            for (; j > run && codes[j - 1] > code; j--) {
                codes[j] = codes[j - 1];
                positions[j] = positions[j - 1];
            }
            codes[j] = code;
            positions[j] = position;
        }
    }
    uint64_t *from_codes = codes, *to_codes = scratch_codes;
    int32_t *from_positions = positions, *to_positions = scratch_positions;
    for (Py_ssize_t width = SORT_RUN; width < len; width *= 2) {
        for (Py_ssize_t left = 0; left < len; left += 2 * width) {
            const Py_ssize_t middle = left + width < len ? left + width : len;
            const Py_ssize_t end =
                middle + width < len ? middle + width : len;
            Py_ssize_t a = left, b = middle, out = left;
            while (a < middle && b < end) {
                /* The right run wins only when strictly smaller: stable. */
                const Py_ssize_t take =
                    from_codes[b] < from_codes[a] ? b++ : a++;
                to_codes[out] = from_codes[take];
                to_positions[out++] = from_positions[take];
            }
            const Py_ssize_t rest = a < middle ? a : b;
            const Py_ssize_t tail = (a < middle ? middle : end) - rest;
            memcpy(to_codes + out, from_codes + rest, tail * sizeof(uint64_t));
            memcpy(to_positions + out, from_positions + rest,
                   tail * sizeof(int32_t));
        }
        uint64_t *swap_codes = from_codes;
        int32_t *swap_positions = from_positions;
        from_codes = to_codes;
        from_positions = to_positions;
        to_codes = swap_codes;
        to_positions = swap_positions;
    }
    if (from_codes != codes) {
        memcpy(codes, from_codes, len * sizeof(uint64_t));
        memcpy(positions, from_positions, len * sizeof(int32_t));
    }
}

static PyObject *
py_kmer_index_build(PyObject *self, PyObject *args)
{
    Py_buffer text;
    Py_ssize_t n_symbols, k, max_occurrences;

    if (!PyArg_ParseTuple(args, "y*nnn", &text, &n_symbols, &k,
                          &max_occurrences))
        return NULL;

    PyObject *result = NULL, *kept_codes_bytes = NULL, *starts_bytes = NULL,
             *kept_positions_bytes = NULL;
    uint64_t *codes = NULL, *scratch = NULL;
    int32_t *positions = NULL, *directory = NULL;

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
    const Py_ssize_t entries = directory_entries(k, bits);
    const Py_ssize_t buckets = entries - 1;
    if ((codes = alloc_product(capacity, sizeof(uint64_t), 1)) == NULL ||
        (positions = alloc_product(capacity, sizeof(int32_t), 1)) == NULL ||
        (directory = alloc_product(entries, sizeof(int32_t), 1)) == NULL)
        goto done;

    const uint8_t *symbols = (const uint8_t *)text.buf;
    Py_ssize_t largest = 0;
    Py_BEGIN_ALLOW_THREADS
    memset(directory, 0, entries * sizeof(int32_t));
    place_kmers(symbols, n, n_symbols, k, bits, directory, NULL, NULL);
    for (Py_ssize_t bucket = 0, offset = 0; bucket < buckets; bucket++) {
        const Py_ssize_t size = directory[bucket];
        largest = size > largest ? size : largest;
        directory[bucket] = (int32_t)offset;
        offset += size;
    }
    Py_END_ALLOW_THREADS
    /* One block: the scratch codes, then the scratch positions. */
    if ((scratch = alloc_product(largest, sizeof(uint64_t) + sizeof(int32_t),
                                 1)) == NULL)
        goto done;

    /* directory[bucket] is now the bucket's end, until the copy below makes
     * it the bucket's first kept code. */
    Py_ssize_t kept_codes = 0, kept_positions = 0, masked = 0;
    Py_BEGIN_ALLOW_THREADS
    place_kmers(symbols, n, n_symbols, k, bits, directory, codes, positions);
    for (Py_ssize_t bucket = 0, begin = 0; bucket < buckets; bucket++) {
        const Py_ssize_t end = directory[bucket];
        sort_bucket(codes + begin, positions + begin, end - begin, scratch,
                    (int32_t *)(scratch + largest));
        for (Py_ssize_t run = begin; run < end;) {
            Py_ssize_t stop = run + 1;
            while (stop < end && codes[stop] == codes[run])
                stop++;
            if (stop - run > max_occurrences) {
                masked++;
            } else {
                kept_codes++;
                kept_positions += stop - run;
            }
            run = stop;
        }
        begin = end;
    }
    free(scratch);
    scratch = NULL;
    Py_END_ALLOW_THREADS

    /* The result's buffers at their final size, filled straight from the
     * sorted hits; memcpy, as bytes data need not be 8-byte aligned. */
    if ((kept_codes_bytes = PyBytes_FromStringAndSize(
             NULL, kept_codes * (Py_ssize_t)sizeof(uint64_t))) == NULL ||
        (starts_bytes = PyBytes_FromStringAndSize(
             NULL, (kept_codes + 1) * (Py_ssize_t)sizeof(int64_t))) == NULL ||
        (kept_positions_bytes = PyBytes_FromStringAndSize(
             NULL, kept_positions * (Py_ssize_t)sizeof(int32_t))) == NULL)
        goto done;
    char *out_codes = PyBytes_AS_STRING(kept_codes_bytes);
    char *out_starts = PyBytes_AS_STRING(starts_bytes);
    char *out_positions = PyBytes_AS_STRING(kept_positions_bytes);
    Py_BEGIN_ALLOW_THREADS
    int64_t start = 0;
    memcpy(out_starts, &start, sizeof(start));
    for (Py_ssize_t bucket = 0, begin = 0, kept = 0; bucket < buckets;
         bucket++) {
        const Py_ssize_t end = directory[bucket];
        directory[bucket] = (int32_t)kept;
        for (Py_ssize_t run = begin; run < end;) {
            Py_ssize_t stop = run + 1;
            while (stop < end && codes[stop] == codes[run])
                stop++;
            if (stop - run <= max_occurrences) {
                memcpy(out_codes + kept * sizeof(uint64_t), &codes[run],
                       sizeof(uint64_t));
                memcpy(out_positions + start * sizeof(int32_t),
                       &positions[run], (stop - run) * sizeof(int32_t));
                start += stop - run;
                kept++;
                memcpy(out_starts + kept * sizeof(int64_t), &start,
                       sizeof(start));
            }
            run = stop;
        }
        begin = end;
    }
    directory[buckets] = (int32_t)kept_codes;
    Py_END_ALLOW_THREADS

    result = Py_BuildValue("(OOOy#n)", kept_codes_bytes, starts_bytes,
                           kept_positions_bytes, (const char *)directory,
                           entries * (Py_ssize_t)sizeof(int32_t), masked);

done:
    free(scratch);
    free(codes);
    free(positions);
    free(directory);
    Py_XDECREF(kept_codes_bytes);
    Py_XDECREF(starts_bytes);
    Py_XDECREF(kept_positions_bytes);
    PyBuffer_Release(&text);
    return result;
}

/* Entries of the index buffers, which need not be aligned. */
static inline int64_t
int64_at(const Py_buffer *buffer, Py_ssize_t i)
{
    int64_t value;
    memcpy(&value, (const char *)buffer->buf + i * 8, sizeof(value));
    return value;
}

static inline uint64_t
code_at(const Py_buffer *codes, Py_ssize_t i)
{
    uint64_t value;
    memcpy(&value, (const char *)codes->buf + i * 8, sizeof(value));
    return value;
}

static inline int32_t
int32_at(const Py_buffer *buffer, int64_t i)
{
    int32_t value;
    memcpy(&value, (const char *)buffer->buf + i * 4, sizeof(value));
    return value;
}

/* The index and the options every seeding entry point shares. */
typedef struct {
    const Py_buffer *codes, *starts, *positions, *directory;
    Py_ssize_t n_symbols, k, stride, max_candidates, tolerance;
    int bits, shift;
} Seeder;

/* Check the seeding arguments of seed_many and map_many and fill *seeder;
 * -1 with ValueError set when they are malformed. Whole-buffer shape only:
 * validating every start and directory entry would cost a pass over the
 * index per call, so seed_core checks each slice it reads. */
static int
check_seeder(Seeder *seeder, Py_ssize_t n_symbols, const Py_buffer *codes,
             const Py_buffer *starts, const Py_buffer *positions,
             const Py_buffer *directory, Py_ssize_t k, Py_ssize_t stride,
             Py_ssize_t max_candidates, Py_ssize_t tolerance)
{
    const int bits = symbol_bits(n_symbols);
    if (check_kmer_length(k, bits) < 0)
        return -1;
    if (stride < 1 || max_candidates < 0 || tolerance < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "stride must be positive, max_candidates and "
                        "diagonal_tolerance non-negative");
        return -1;
    }
    if (codes->len % 8 != 0 || positions->len % 4 != 0 ||
        starts->len != codes->len + 8 || int64_at(starts, 0) != 0 ||
        int64_at(starts, codes->len / 8) != (int64_t)(positions->len / 4)) {
        PyErr_SetString(PyExc_ValueError,
                        "index buffers must be uint64 codes, len(codes) + 1 "
                        "int64 starts from 0 to len(positions), and int32 "
                        "positions");
        return -1;
    }
    const Py_ssize_t entries = directory_entries(k, bits);
    if (directory->len != entries * 4 || int32_at(directory, 0) != 0 ||
        int32_at(directory, entries - 1) != (int64_t)(codes->len / 8)) {
        PyErr_SetString(PyExc_ValueError,
                        "the directory must be 2**min(16, k * bits) + 1 int32 "
                        "entries from 0 to len(codes)");
        return -1;
    }
    seeder->codes = codes;
    seeder->starts = starts;
    seeder->positions = positions;
    seeder->directory = directory;
    seeder->n_symbols = n_symbols;
    seeder->k = k;
    seeder->stride = stride;
    seeder->max_candidates = max_candidates;
    seeder->tolerance = tolerance;
    seeder->bits = bits;
    seeder->shift = directory_shift(k, bits);
    return 0;
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

enum {
    SEED_OK = 0,
    SEED_NO_MEMORY = 1,
    SEED_BAD_INDEX = 2,
    SEED_BAD_REFERENCE = 3, /* map_many: a region holds a code > n_symbols */
    MAP_REFUSED = 4, /* map_many: a window loop failed or a score overflowed */
};

/* Seeds whose index lookups seed_core runs side by side: more than a
 * strand of a 100 bp read has (6 at k = stride = 15), so a short read's
 * strand is one block. */
#define SEED_BLOCK 16

/* One seed's lookup as it moves through seed_core's stages. */
typedef struct {
    uint64_t code;
    Py_ssize_t offset;
    int64_t first, end; /* its bucket's code range, then its hits' range */
} SeedLookup;

/* Seed one read (candidate_locations parity): every stride-th k-mer votes
 * for the diagonals its index hits imply, chains of diagonals no further
 * apart than `tolerance` merge, and the best `max_candidates` clusters are
 * appended to `out` as (read_id, position, votes) triples. A code above
 * n_symbols - 1 breaks a k-mer like the sentinel. `diagonals` and
 * `clusters` are scratch the caller keeps from one read to the next.
 *
 * A lookup is a chain of four dependent loads: the directory entry, the
 * bucket's codes, the hit's starts and its positions. The index outgrows
 * the L2 cache on any sizeable reference, so each load is likely a miss,
 * and a seed cannot issue the next load of its chain before the last one
 * returns. The chains of different seeds do not depend on each other,
 * though, so the seeds run in blocks of SEED_BLOCK, one stage at a time
 * over the whole block: (1) code every seed and prefetch its directory
 * entry; (2) read and check each seed's directory range and prefetch the
 * code its search probes first; (3) search each bucket and prefetch the
 * hit's starts entry; (4) read and check the starts and prefetch the first
 * position; (5) append the diagonals in seed order. A block's misses of one
 * stage then overlap instead of queueing one behind another. Every slice is
 * still checked before it is read, only a checked address is prefetched,
 * and the diagonals come out in the order a seed-at-a-time walk appends
 * them, so the answer is that walk's. */
static int
seed_core(const uint8_t *read, Py_ssize_t n, int64_t read_id,
          const Seeder *seeder, Int64Vector *diagonals, Cluster **clusters,
          Py_ssize_t *cluster_capacity, Int64Vector *out)
{
    const Py_buffer *codes = seeder->codes;
    const char *code_bytes = (const char *)codes->buf;
    const char *directory = (const char *)seeder->directory->buf;
    const char *starts = (const char *)seeder->starts->buf;
    const char *positions = (const char *)seeder->positions->buf;
    const Py_ssize_t n_codes = codes->len / 8;
    const int64_t n_positions = (int64_t)(seeder->positions->len / 4);
    const Py_ssize_t k = seeder->k, stride = seeder->stride;
    const Py_ssize_t seeds = n >= k ? (n - k) / stride + 1 : 0;
    SeedLookup block[SEED_BLOCK];

    diagonals->len = 0;
    for (Py_ssize_t next = 0; next < seeds;) {
        const Py_ssize_t stop =
            seeds - next < SEED_BLOCK ? seeds : next + SEED_BLOCK;
        int count = 0;
        for (; next < stop; next++) {
            const Py_ssize_t offset = next * stride;
            uint64_t code = 0;
            Py_ssize_t j = 0;
            for (; j < k && read[offset + j] < seeder->n_symbols; j++)
                code = (code << seeder->bits) | read[offset + j];
            if (j < k)
                continue;
            __builtin_prefetch(directory + (code >> seeder->shift) * 4);
            block[count].code = code;
            block[count++].offset = offset;
        }
        /* The index is the caller's: trust no slice of it. */
        for (int i = 0; i < count; i++) {
            const int64_t prefix = (int64_t)(block[i].code >> seeder->shift);
            const int64_t first = int32_at(seeder->directory, prefix);
            const int64_t end = int32_at(seeder->directory, prefix + 1);
            if (first < 0 || end < first || end > n_codes)
                return SEED_BAD_INDEX;
            if (first < end) /* the search's first probe */
                __builtin_prefetch(code_bytes + (first + end) / 2 * 8);
            block[i].first = first;
            block[i].end = end;
        }
        int hits = 0;
        for (int i = 0; i < count; i++) {
            const uint64_t code = block[i].code;
            Py_ssize_t low = (Py_ssize_t)block[i].first;
            Py_ssize_t high = (Py_ssize_t)block[i].end;
            while (low < high) {
                const Py_ssize_t middle = low + (high - low) / 2;
                if (code_at(codes, middle) < code)
                    low = middle + 1;
                else
                    high = middle;
            }
            if (low < block[i].end && code_at(codes, low) == code) {
                __builtin_prefetch(starts + low * 8);
                block[hits].offset = block[i].offset;
                block[hits++].first = low; /* the hit's code, for now */
            }
        }
        for (int i = 0; i < hits; i++) {
            const int64_t first = int64_at(seeder->starts, block[i].first);
            const int64_t end = int64_at(seeder->starts, block[i].first + 1);
            if (first < 0 || end < first || end > n_positions)
                return SEED_BAD_INDEX;
            if (first < end)
                __builtin_prefetch(positions + first * 4);
            block[i].first = first;
            block[i].end = end;
        }
        for (int i = 0; i < hits; i++) {
            const int64_t first = block[i].first, end = block[i].end;
            if (vector_reserve(diagonals, (Py_ssize_t)(end - first)) < 0)
                return SEED_NO_MEMORY;
            for (int64_t hit = first; hit < end; hit++)
                diagonals->items[diagonals->len++] =
                    (int64_t)int32_at(seeder->positions, hit) -
                    (int64_t)block[i].offset;
        }
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
        if (run > 0 && diagonal - previous <= (int64_t)seeder->tolerance) {
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

    const Py_ssize_t kept = n_clusters < seeder->max_candidates
                                ? n_clusters
                                : seeder->max_candidates;
    if (vector_reserve(out, 3 * kept) < 0)
        return SEED_NO_MEMORY;
    for (Py_ssize_t i = 0; i < kept; i++) {
        out->items[out->len++] = read_id;
        out->items[out->len++] = cluster[i].position;
        out->items[out->len++] = cluster[i].votes;
    }
    return SEED_OK;
}

/* Raise what a failed seed_core or map_core status means; -1 when it set
 * an error, 0 for SEED_OK. */
static int
seed_failed(int status)
{
    if (status == SEED_NO_MEMORY) {
        PyErr_NoMemory();
        return -1;
    }
    if (status == SEED_BAD_INDEX) {
        PyErr_SetString(PyExc_ValueError,
                        "index starts and directory entries must never "
                        "decrease or pass the end of the buffer they index");
        return -1;
    }
    if (status == SEED_BAD_REFERENCE) {
        PyErr_SetString(PyExc_ValueError,
                        "reference code out of mask-table range");
        return -1;
    }
    return 0;
}

static PyObject *
py_seed_many(PyObject *self, PyObject *args)
{
    PyObject *reads;
    const char *table;
    Py_ssize_t table_length, n_symbols, k, stride, max_candidates, tolerance;
    Py_buffer codes, starts, positions, directory;

    if (!PyArg_ParseTuple(args, "Oy#ny*y*y*y*nnnn", &reads, &table,
                          &table_length, &n_symbols, &codes, &starts,
                          &positions, &directory, &k, &stride,
                          &max_candidates, &tolerance))
        return NULL;

    PyObject *result = NULL, *columns[3] = {NULL, NULL, NULL};
    Int64Vector diagonals = {NULL, 0, 0}, out = {NULL, 0, 0};
    Cluster *clusters = NULL;
    Py_ssize_t cluster_capacity = 0;
    Seeder seeder;
    Coded coded;
    const Side side = {table, table_length, 0};

    if (code_batch(reads, &side, 1, n_symbols, &coded) < 0 ||
        check_seeder(&seeder, n_symbols, &codes, &starts, &positions,
                     &directory, k, stride, max_candidates, tolerance) < 0)
        goto done;

    int status = SEED_OK;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < coded.count && status == SEED_OK; i++)
        status = seed_core(coded.codes + coded.at[i],
                           coded.at[i + 1] - coded.at[i], (int64_t)i, &seeder,
                           &diagonals, &clusters, &cluster_capacity, &out);
    Py_END_ALLOW_THREADS
    if (seed_failed(status) < 0)
        goto done;

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
    coded_free(&coded);
    PyBuffer_Release(&codes);
    PyBuffer_Release(&starts);
    PyBuffer_Release(&positions);
    PyBuffer_Release(&directory);
    return result;
}

/* ------------------------------------------------------------------ */
/* The whole mapper for a batch (ReadMapper.map_reads parity)          */
/* ------------------------------------------------------------------ */

/* map_many answers each read the way ReadMapper's staged path does: both
 * strands seeded (seed_core), each candidate's region cut from the coded
 * reference (Genome.region's clamp), filtered as by the first-hit distance
 * sweep (GenAsmFilter), aligned (align_core) and scored (Cigar.score); the
 * first best-scoring survivor wins, forward strand first, each strand's
 * candidates best-voted first. The order inside differs: every candidate
 * with a non-empty region is aligned first, and the sweep (first_hit) runs
 * only where the alignment does not answer the filter (map_core says
 * when). The survivors, and so `survivors` (the mapper's alignments_run),
 * are the filter's. A batch holding a read coded above n_symbols (a
 * foreign character), a window loop that fails or a score past 64 bits
 * comes back None: the staged path maps it, or raises. */

typedef struct {
    Py_ssize_t match, substitution, gap_open, gap_extend;
} Scoring;

/* Cigar.score over expanded ops: match per M, substitution per S,
 * gap_open per maximal run of I or of D, gap_extend per I or D. -1 when the
 * score does not fit a Py_ssize_t. */
static int
score_ops(const char *ops, Py_ssize_t len, const Scoring *scoring,
          Py_ssize_t *score)
{
    Py_ssize_t matches = 0, substitutions = 0, gapped = 0, gaps = 0;
    char previous = 0;
    for (Py_ssize_t i = 0; i < len; i++) {
        const char op = ops[i];
        if (op == 'M') {
            matches++;
        } else if (op == 'S') {
            substitutions++;
        } else {
            gapped++;
            gaps += op != previous;
        }
        previous = op;
    }
    Py_ssize_t terms[4], total = 0;
    if (__builtin_mul_overflow(scoring->match, matches, &terms[0]) ||
        __builtin_mul_overflow(scoring->substitution, substitutions,
                               &terms[1]) ||
        __builtin_mul_overflow(scoring->gap_open, gaps, &terms[2]) ||
        __builtin_mul_overflow(scoring->gap_extend, gapped, &terms[3]))
        return -1;
    for (int i = 0; i < 4; i++)
        if (__builtin_add_overflow(total, terms[i], &total))
            return -1;
    *score = total;
    return 0;
}

/* A growable char array: every mapped read's winning ops, end to end. */
typedef struct {
    char *items;
    Py_ssize_t len, capacity;
} CharVector;

static int
char_vector_append(CharVector *vector, const char *items, Py_ssize_t n)
{
    if (n > vector->capacity - vector->len) {
        if (n > PY_SSIZE_T_MAX / 2 - vector->len)
            return -1;
        Py_ssize_t capacity = vector->capacity > 0 ? vector->capacity : 4096;
        while (capacity < vector->len + n)
            capacity *= 2;
        char *grown = realloc(vector->items, (size_t)capacity);
        if (grown == NULL)
            return -1;
        vector->items = grown;
        vector->capacity = capacity;
    }
    memcpy(vector->items + vector->len, items, (size_t)n);
    vector->len += n;
    return 0;
}

/* What stays fixed across a map_many call besides the Seeder. */
typedef struct {
    const uint8_t *reference;
    Py_ssize_t reference_length;
    const uint8_t *complement; /* n_symbols + 1 codes, each <= n_symbols */
    Py_ssize_t threshold;      /* the filter's; negative: no filter */
    Py_ssize_t window_size, overlap;
    TbProgram program;
    Scoring scoring;
} MapPlan;

/* Scratch map_many keeps from one read to the next. */
typedef struct {
    Int64Vector diagonals, candidates;
    Cluster *clusters;
    Py_ssize_t cluster_capacity;
    uint8_t *reverse;       /* the read's reverse complement */
    uint64_t *read_masks;   /* the oriented read's multiword mask rows */
    uint64_t *filter_rows;  /* first_hit's (2n + 5) * words scratch */
    uint64_t *align_rows;   /* dc_rows' W + 2 rows of W + 1, the PM column */
    PairLoop align_pair;    /* align_core's window loop */
    char *ops[2];           /* the candidate being aligned, the best so far */
    CharVector winners;
} MapScratch;

typedef struct {
    int mapped; /* 0: no candidate survived */
    int reverse;
    Py_ssize_t candidates, survivors;
    Py_ssize_t position, text_consumed, edits, score;
    Py_ssize_t ops_start, ops_len; /* the winner's ops in scratch winners */
} MappedRead;

/* Map one read of m pattern codes, none above n_symbols; regions span
 * region_length characters (already clamped to the reference). Returns a
 * SEED_* status, or MAP_REFUSED. */
static int
map_core(const uint8_t *read, Py_ssize_t m, Py_ssize_t region_length,
         const Seeder *seeder, const MapPlan *plan, MapScratch *scratch,
         MappedRead *mapped)
{
    const Py_ssize_t n_symbols = seeder->n_symbols;
    const Py_ssize_t n_ref = plan->reference_length;
    const Py_ssize_t words = (m + WORD_BITS - 1) / WORD_BITS;
    const Py_ssize_t window_size = plan->window_size;

    memset(mapped, 0, sizeof(*mapped));
    for (Py_ssize_t j = 0; j < m; j++)
        scratch->reverse[j] = plan->complement[read[m - 1 - j]];

    int found = 0;
    for (int strand = 0; strand < 2; strand++) {
        const uint8_t *oriented = strand ? scratch->reverse : read;
        scratch->candidates.len = 0;
        const int status = seed_core(
            oriented, m, 0, seeder, &scratch->diagonals, &scratch->clusters,
            &scratch->cluster_capacity, &scratch->candidates);
        if (status != SEED_OK)
            return status;
        const Py_ssize_t count = scratch->candidates.len / 3;
        mapped->candidates += count;
        if (count > 0) /* the filter's rows and align_core's table */
            build_masks(oriented, m, n_symbols, words, scratch->read_masks);
        for (Py_ssize_t c = 0; c < count; c++) {
            const int64_t position = scratch->candidates.items[3 * c + 1];
            const Py_ssize_t start =
                position < n_ref ? (Py_ssize_t)position : n_ref;
            const Py_ssize_t n = region_length < n_ref - start
                                     ? region_length
                                     : n_ref - start;
            const uint8_t *region = plan->reference + start;
            if (first_code_above(region, n, n_symbols) >= 0)
                return SEED_BAD_REFERENCE;
            if (plan->threshold >= 0 && n == 0)
                continue; /* the filter rejects an empty region */
            AlignedPair aligned;
            if (align_core(region, n, scratch->read_masks, m, n_symbols,
                           window_size, plan->overlap, &plan->program,
                           scratch->align_rows,
                           scratch->align_rows +
                               (window_size + 2) * (window_size + 1),
                           &scratch->align_pair, scratch->ops[0],
                           &aligned) < 0)
                return MAP_REFUSED;
            /* The filter asks whether some row d <= cap of the region's DC
             * hits in any column. The alignment just made answers yes when
             * its e edits are <= cap and it stops short of the region's end
             * (t < n): it is a path from column 0 through the same masks,
             * each M a PM match and every other op one edit, so it is a hit
             * of row e at column 0 and first_hit's distance is <= e. Only
             * the region's end departs from the semi-global optimum: every
             * R[d] starts all-ones at column n, so DC places no insertion
             * after the last text character (core/prefilter.py). With
             * t < n every insertion of the path sits before some text
             * character, which DC allows. (A walk never leaves its window's
             * text with pattern left, so only a walk that takes all W of
             * its window's pattern symbols, possible only at O = 0, lets
             * the loop end a read with insertions past the region's end.)
             * Any other candidate (e > cap, or the region used up, t == n)
             * runs first_hit as before, and one the filter rejects is
             * dropped unscored. Survivors are the same as filtering first;
             * a window loop that fails on a candidate the filter would have
             * rejected now refuses the batch, and the staged path maps it
             * to the same answers. */
            if (plan->threshold >= 0) {
                const Py_ssize_t cap =
                    plan->threshold < m ? plan->threshold : m;
                if (aligned.edits > cap || aligned.text_consumed >= n) {
                    const uint64_t *masks = scratch->read_masks;
                    Py_ssize_t distance;
                    first_hit(&region, n, &masks, words, &m, &cap,
                              scratch->filter_rows, &distance);
                    if (distance < 0)
                        continue; /* the filter rejects it */
                }
            }
            mapped->survivors++;
            Py_ssize_t score;
            if (score_ops(scratch->ops[0], aligned.ops_len, &plan->scoring,
                          &score) < 0)
                return MAP_REFUSED;
            if (found && score <= mapped->score)
                continue;
            found = 1;
            char *swap = scratch->ops[1];
            scratch->ops[1] = scratch->ops[0];
            scratch->ops[0] = swap;
            mapped->reverse = strand;
            mapped->position = (Py_ssize_t)position;
            mapped->text_consumed = aligned.text_consumed;
            mapped->edits = aligned.edits;
            mapped->score = score;
            mapped->ops_len = aligned.ops_len;
        }
    }
    if (found) {
        mapped->mapped = 1;
        mapped->ops_start = scratch->winners.len;
        if (char_vector_append(&scratch->winners, scratch->ops[1],
                               mapped->ops_len) < 0)
            return SEED_NO_MEMORY;
    }
    return SEED_OK;
}

static PyObject *
py_map_many(PyObject *self, PyObject *args)
{
    PyObject *reads;
    const char *table;
    Py_ssize_t table_length, n_symbols, k, stride, max_candidates, tolerance;
    Py_buffer complement, reference, codes, starts, positions, directory,
        region_lengths, program;
    MapPlan plan;

    if (!PyArg_ParseTuple(
            args, "Oy#ny*y*y*y*y*y*nnnny*nnny*(nnnn)", &reads, &table,
            &table_length, &n_symbols, &complement, &reference, &codes,
            &starts, &positions, &directory, &k, &stride, &max_candidates,
            &tolerance, &region_lengths, &plan.threshold, &plan.window_size,
            &plan.overlap, &program, &plan.scoring.match,
            &plan.scoring.substitution, &plan.scoring.gap_open,
            &plan.scoring.gap_extend))
        return NULL;

    PyObject *result = NULL, *entries = NULL;
    MapScratch scratch;
    MappedRead *mapped = NULL;
    Seeder seeder;
    Coded coded;
    const Side side = {table, table_length, 1};
    memset(&scratch, 0, sizeof(scratch));

    if (code_batch(reads, &side, 1, n_symbols, &coded) < 0 ||
        check_seeder(&seeder, n_symbols, &codes, &starts, &positions,
                     &directory, k, stride, max_candidates, tolerance) < 0)
        goto done;
    const Py_ssize_t count = coded.count, longest = coded.longest[0];
    if (complement.len != n_symbols + 1 ||
        first_code_above((const uint8_t *)complement.buf, complement.len,
                         n_symbols) >= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "the complement table must map each of the "
                        "n_symbols + 1 codes to one of them");
        goto done;
    }
    if (region_lengths.len != count * 8) {
        PyErr_SetString(PyExc_ValueError,
                        "region lengths must be one int64 per read");
        goto done;
    }
    Py_ssize_t longest_region = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        const int64_t length = int64_at(&region_lengths, i);
        if (length < 0) {
            PyErr_SetString(PyExc_ValueError,
                            "region lengths must be non-negative");
            goto done;
        }
        if (length > (int64_t)longest_region)
            longest_region = length < (int64_t)reference.len
                                 ? (Py_ssize_t)length
                                 : reference.len;
    }
    if (plan.window_size < 1 || plan.window_size > WORD_BITS ||
        plan.overlap < 0 || plan.overlap >= plan.window_size) {
        PyErr_SetString(PyExc_ValueError,
                        "window_size must be in [1, 64] and the overlap "
                        "satisfy 0 <= O < W");
        goto done;
    }
    if (check_program(&program, &plan.program) < 0)
        goto done;
    if (longest_region > PY_SSIZE_T_MAX - longest) {
        PyErr_NoMemory();
        goto done;
    }
    const Py_ssize_t words = longest > 0 ? (longest + WORD_BITS - 1) /
                                               WORD_BITS
                                         : 1;
    /* align_core writes at most n + m ops for a region of n. */
    if ((scratch.reverse = alloc_product(longest, 1, 1)) == NULL ||
        (scratch.read_masks =
             alloc_product(n_symbols + 1, words, sizeof(uint64_t))) == NULL ||
        (scratch.filter_rows = alloc_product(longest_region + 3, 2 * words,
                                             sizeof(uint64_t))) == NULL ||
        (scratch.align_rows =
             alloc_product(plan.window_size + 1, plan.window_size + 3,
                           sizeof(uint64_t))) == NULL ||
        (scratch.ops[0] = alloc_product(longest_region + longest, 1, 1)) ==
            NULL ||
        (scratch.ops[1] = alloc_product(longest_region + longest, 1, 1)) ==
            NULL ||
        (mapped = alloc_product(count, sizeof(MappedRead), 1)) == NULL)
        goto done;

    plan.reference = (const uint8_t *)reference.buf;
    plan.reference_length = reference.len;
    plan.complement = (const uint8_t *)complement.buf;
    int status = coded.refused ? MAP_REFUSED : SEED_OK;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < count && status == SEED_OK; i++) {
        const int64_t length = int64_at(&region_lengths, i);
        status = map_core(
            coded.codes + coded.at[i], coded.at[i + 1] - coded.at[i],
            length < (int64_t)reference.len ? (Py_ssize_t)length
                                            : reference.len,
            &seeder, &plan, &scratch, &mapped[i]);
    }
    Py_END_ALLOW_THREADS
    if (status == MAP_REFUSED) { /* the staged path maps it, or raises */
        result = Py_NewRef(Py_None);
        goto done;
    }
    if (seed_failed(status) < 0)
        goto done;

    Py_ssize_t candidates = 0, survivors = 0;
    if ((entries = PyList_New(count)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < count; i++) {
        const MappedRead *read = &mapped[i];
        candidates += read->candidates;
        survivors += read->survivors;
        PyObject *entry =
            read->mapped
                ? Py_BuildValue("(nOs#nnn)", read->position,
                                read->reverse ? Py_True : Py_False,
                                scratch.winners.items + read->ops_start,
                                read->ops_len, read->text_consumed,
                                read->edits, read->score)
                : PyTuple_New(0);
        if (entry == NULL)
            goto done;
        PyList_SET_ITEM(entries, i, entry);
    }
    result = Py_BuildValue("(nnO)", candidates, survivors, entries);

done:
    Py_XDECREF(entries);
    free(scratch.diagonals.items);
    free(scratch.candidates.items);
    free(scratch.clusters);
    free(scratch.reverse);
    free(scratch.read_masks);
    free(scratch.filter_rows);
    free(scratch.align_rows);
    free(scratch.ops[0]);
    free(scratch.ops[1]);
    free(scratch.winners.items);
    free(mapped);
    coded_free(&coded);
    PyBuffer_Release(&complement);
    PyBuffer_Release(&reference);
    PyBuffer_Release(&codes);
    PyBuffer_Release(&starts);
    PyBuffer_Release(&positions);
    PyBuffer_Release(&directory);
    PyBuffer_Release(&region_lengths);
    PyBuffer_Release(&program);
    return result;
}

/* ------------------------------------------------------------------ */

static PyMethodDef native_methods[] = {
    {"scan_many", py_scan_many, METH_VARARGS,
     "scan_many(pairs, text_table, pattern_table, n_symbols, k, "
     "first_match_only)\n"
     "-> list[list[(start, distance)]] | None — every (text, pattern) "
     "pair's hits, one multiword DC sweep each (bitap_scan parity); None "
     "when a pattern is empty or codes above n_symbols."},
    {"edit_distance_many", py_edit_distance_many, METH_VARARGS,
     "edit_distance_many(pairs, text_table, pattern_table, n_symbols, k)\n"
     "-> list[int] | None — every pair's smallest semi-global distance, "
     "distance rows in increasing d up to the first hit; -1 when none is "
     "<= k. None where scan_many answers None."},
    {"dc_window", py_dc_window, METH_VARARGS,
     "dc_window(text_codes, pattern_codes, n_symbols)\n"
     "-> (edit_distance, history_bytes) | None — single-word GenASM-DC "
     "with SENE history, distance rows in increasing d up to the first hit "
     "(run_dc_window parity; k == edit_distance)."},
    {"align_many", py_align_many, METH_VARARGS,
     "align_many(pairs, text_table, pattern_table, n_symbols, "
     "window_size, overlap, program)\n"
     "-> list[(ops, text_consumed, edit_distance)] | None — the whole "
     "windowed DC+TB loop for every pair; None when a pattern codes above "
     "n_symbols or a window loop fails."},
    {"kmer_index_build", py_kmer_index_build, METH_VARARGS,
     "kmer_index_build(text_codes, n_symbols, k, max_occurrences)\n"
     "-> (codes, starts, positions, directory, masked) — the k-mer index of "
     "one reference as uint64 / int64 / int32 / int32 bytes "
     "(KmerIndex.build parity); k-mers holding the sentinel code are "
     "dropped, ones above max_occurrences dropped and counted."},
    {"seed_many", py_seed_many, METH_VARARGS,
     "seed_many(reads, text_table, n_symbols, codes, starts, positions, "
     "directory, k, stride, max_candidates, diagonal_tolerance)\n"
     "-> (read_ids, positions, votes) — parallel lists of every read's "
     "ranked candidate locations (candidate_locations parity)."},
    {"map_many", py_map_many, METH_VARARGS,
     "map_many(reads, pattern_table, n_symbols, complement, "
     "reference_codes, codes, starts, positions, directory, k, stride, "
     "max_candidates, diagonal_tolerance, region_lengths, threshold, "
     "window_size, overlap, program, (match, substitution, gap_open, "
     "gap_extend))\n"
     "-> (candidates, survivors, entries) | None — every read seeded on "
     "both strands, its candidate regions filtered (threshold < 0: no "
     "filter), aligned and best-picked (ReadMapper.map_reads parity). An "
     "entry is (position, reverse, ops, text_consumed, edit_distance, "
     "score), or () when no candidate survives. None when a read codes "
     "above n_symbols, a window loop fails or a score passes 64 bits."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "repro.core._native",
    "Compiled GenASM kernels (DC sweeps, windowed DC+TB align,\n"
    "k-mer index build, batch seeding, whole-batch mapping).\n"
    "Internal ABI — use repro.core.kernels / the \"native\" engine instead.",
    -1,
    native_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&native_module);
}
