/* Compiled SECDED and FM-LUT kernels of the hot Monte-Carlo datapath.
 *
 * Built at runtime by repro/kernels/c_backend.py with the system C compiler
 * (no network, no setuptools) and loaded through ctypes.  Every function is
 * a straight transcription of the NumPy reference in numpy_backend.py and
 * must stay bit-for-bit identical to it; the capability probe self-tests
 * each kernel against the reference before the backend is ever selected.
 *
 * Conventions:
 *   - all arrays are 1-D contiguous, lengths passed as int64_t;
 *   - structural validation (dtype, bounds, widths) happens in the Python
 *     wrappers, exactly where it always happened;
 *   - a non-zero return code signals the data-dependent error case that the
 *     NumPy path reports via ValueError (a 3+-error SECDED codeword); the
 *     wrapper re-raises the matching exception.
 *
 * Only the kernels that beat NumPy at the datapath's call sizes live here;
 * the rest of the kernel interface is the NumPy reference in every backend.
 */

#include <stdint.h>

#if defined(__GNUC__) || defined(__clang__)
#define POPCOUNT64(x) __builtin_popcountll(x)
#else
static int popcount64_sw(uint64_t x)
{
    int count = 0;
    while (x) {
        x &= x - 1;
        ++count;
    }
    return count;
}
#define POPCOUNT64(x) popcount64_sw(x)
#endif

static uint64_t width_mask(int64_t width)
{
    return (width >= 64) ? ~(uint64_t)0 : (((uint64_t)1 << width) - 1);
}

/* ------------------------------------------------------------------ */
/* XOR-popcount SECDED                                                 */
/* ------------------------------------------------------------------ */

/* Data bits occupy contiguous position runs between the power-of-two
 * parity positions (at most r + 1 runs), so the per-bit gather/scatter
 * loops collapse into a handful of shift/mask operations per word.  The
 * run table is rebuilt per call from data_pos -- O(k), off the hot loop. */
typedef struct {
    int64_t pos;   /* first codeword position of the run */
    int64_t bit;   /* first data-bit index of the run */
    uint64_t mask; /* (1 << run_length) - 1 */
} rk_run;

static int64_t rk_build_runs(const int64_t *data_pos, int64_t k, rk_run *runs)
{
    int64_t n_runs = 0;
    int64_t b = 0;
    while (b < k) {
        int64_t start = b;
        while (b + 1 < k && data_pos[b + 1] == data_pos[b] + 1)
            ++b;
        ++b;
        runs[n_runs].pos = data_pos[start];
        runs[n_runs].bit = start;
        runs[n_runs].mask = width_mask(b - start);
        ++n_runs;
    }
    return n_runs;
}

int rk_secded_encode(const uint64_t *data, uint64_t *out, int64_t n,
                     int64_t k, int64_t r,
                     const int64_t *data_pos, const int64_t *parity_pos,
                     const uint64_t *check_masks)
{
    rk_run runs[64];
    int64_t n_runs = rk_build_runs(data_pos, k, runs);
    for (int64_t i = 0; i < n; ++i) {
        uint64_t d = data[i];
        uint64_t inner = 0;
        for (int64_t s = 0; s < n_runs; ++s)
            inner |= ((d >> runs[s].bit) & runs[s].mask) << runs[s].pos;
        for (int64_t j = 0; j < r; ++j)
            inner |= (uint64_t)(POPCOUNT64(inner & check_masks[j]) & 1)
                     << parity_pos[j];
        out[i] = inner | (uint64_t)(POPCOUNT64(inner) & 1);
    }
    return 0;
}

/* Returns 1 when a corrected codeword leaves the n_bits range (only possible
 * with three or more errors); the wrapper raises the scalar decoder's
 * ValueError.  n_bits <= 64 is guaranteed by SecdedKernelSpec, so the
 * syndrome (< 2**r, r <= 6) is always a valid shift amount. */
int rk_secded_decode(const uint64_t *codewords, uint64_t *out, int64_t n,
                     int64_t k, int64_t r, int64_t n_bits,
                     const int64_t *data_pos, const uint64_t *check_masks)
{
    uint64_t limit = width_mask(n_bits);
    rk_run runs[64];
    int64_t n_runs = rk_build_runs(data_pos, k, runs);
    for (int64_t i = 0; i < n; ++i) {
        uint64_t c = codewords[i];
        uint64_t syn = 0;
        for (int64_t j = 0; j < r; ++j)
            syn |= (uint64_t)(POPCOUNT64(c & check_masks[j]) & 1) << j;
        uint64_t corrected =
            (POPCOUNT64(c) & 1) ? (c ^ ((uint64_t)1 << syn)) : c;
        if (corrected > limit)
            return 1;
        uint64_t d = 0;
        for (int64_t s = 0; s < n_runs; ++s)
            d |= ((corrected >> runs[s].pos) & runs[s].mask) << runs[s].bit;
        out[i] = d;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* FM-LUT rotation apply (width <= 63, enforced by the wrapper)        */
/* ------------------------------------------------------------------ */

int rk_fmlut_encode(const uint64_t *data, const int64_t *rows, uint64_t *out,
                    int64_t n, const int64_t *entries, const int64_t *rotations,
                    int64_t width)
{
    uint64_t mask = width_mask(width);
    for (int64_t i = 0; i < n; ++i) {
        int64_t row = rows[i];
        uint64_t amount = (uint64_t)rotations[row] % (uint64_t)width;
        uint64_t p = data[i];
        uint64_t rotated =
            amount ? (((p >> amount) | (p << (width - amount))) & mask) : p;
        out[i] = rotated | ((uint64_t)entries[row] << width);
    }
    return 0;
}

int rk_fmlut_decode(const uint64_t *stored, const int64_t *rows, uint64_t *out,
                    int64_t n, const int64_t *rotations, int64_t width)
{
    uint64_t mask = width_mask(width);
    for (int64_t i = 0; i < n; ++i) {
        uint64_t p = stored[i] & mask;
        uint64_t amount = (uint64_t)rotations[rows[i]] % (uint64_t)width;
        out[i] = amount ? (((p << amount) | (p >> (width - amount))) & mask) : p;
    }
    return 0;
}
