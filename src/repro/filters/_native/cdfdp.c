/* Compiled kernels for the hot per-pair filters (DESIGN.md section 6j).
 *
 * Three entry points, mirroring the pinned python references
 * operation-for-operation so the results are bit-identical IEEE-754
 * binary64 floats:
 *
 *   repro_edit_banded       <-> repro.distance.edit.edit_distance_banded
 *   repro_cdf_bounds        <-> repro.filters.cdf.cdf_bounds
 *   repro_frequency_bounds  <-> repro.filters.frequency.frequency_bounds
 *
 * Bit-exactness discipline
 * ------------------------
 * CPython floats are C doubles and every arithmetic step of the
 * reference kernels maps 1:1 onto one C expression here with the SAME
 * association order (python's `a + b + c` is `(a + b) + c`; explicit
 * parentheses in the reference are preserved explicitly below).  The
 * only transcendental call, `x ** 2` on a float, is CPython's
 * `pow(x, 2.0)` from libm — this file calls the same libm `pow`.  The
 * build must therefore NOT enable value-changing float optimisations:
 * setup.py compiles with -ffp-contract=off -fno-fast-math so no FMA
 * contraction or reassociation can alter a rounding step.  Within one
 * interpreter (same libm, same FPU mode) the outputs are bitwise equal
 * to the python reference by construction; the parity suites in
 * tests/test_native_backend.py enforce it empirically.
 *
 * Data layout (marshalled once per string/profile by
 * repro.filters._native and cached — see that module):
 *
 * A string is its per-position agreement table flattened into three
 * arrays: `offs[i]..offs[i+1]` delimit position i's support in `codes`
 * (unicode code points) and `probs` (probabilities, most probable
 * first — the exact iteration order of UncertainPosition.agreement).
 * A certain position has support size 1 with probability 1.0.
 *
 * A frequency profile is its ascending support alphabet (`chars`,
 * code points) with, per character, the certain count and the S1/S2/S3
 * arrays (pmf / survival / scaled_tail, identical floats to the cached
 * CharCountDistribution properties) flattened behind `offs`.
 *
 * All functions are pure and reentrant (stack/heap scratch only, no
 * globals): the ctypes wrapper releases the GIL around every call, so
 * concurrent serve threads may be in here simultaneously.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(_WIN32)
#define REPRO_EXPORT __declspec(dllexport)
#else
#define REPRO_EXPORT __attribute__((visibility("default")))
#endif

/* Bumped whenever an exported signature or marshalling layout changes;
 * the python wrapper refuses to load a library reporting a different
 * version (a stale build must degrade to "unavailable", never to
 * garbage reads). */
#define REPRO_NATIVE_ABI 1

REPRO_EXPORT int32_t
repro_abi_version(void)
{
    return REPRO_NATIVE_ABI;
}

/* CPython's `x ** 2` on a float calls libm's pow(x, 2.0), which is NOT
 * always bitwise-equal to x * x (glibc's pow can land 1 ulp off the
 * correctly-rounded square).  GCC folds a literal pow(x, 2.0) call
 * into x * x at -O2, silently breaking parity with the interpreter —
 * the volatile function pointer forces a real call into the same libm
 * CPython uses. */
static double (*volatile repro_pow)(double, double) = pow;

/* ------------------------------------------------------------------ */
/* Banded edit distance (mirrors edit_distance_banded)                 */
/* ------------------------------------------------------------------ */

/* Exact distance when <= k, else k + 1.  Stack rows for short strings,
 * heap beyond; -1 only on allocation failure (caller raises). */
#define EDIT_STACK_CAP 256

REPRO_EXPORT int32_t
repro_edit_banded(const int32_t *left, int32_t n, const int32_t *right,
                  int32_t m, int32_t k)
{
    int32_t length_gap = n > m ? n - m : m - n;
    if (k < 0)
        return -2;
    if (length_gap > k)
        return k + 1;
    if (n == m) {
        int32_t i, same = 1;
        for (i = 0; i < n; i++) {
            if (left[i] != right[i]) {
                same = 0;
                break;
            }
        }
        if (same)
            return 0;
    }
    if (n < m) {
        const int32_t *tmp_s = left;
        int32_t tmp_n = n;
        left = right;
        n = m;
        right = tmp_s;
        m = tmp_n;
    }
    {
        int32_t big = k + 1;
        int32_t stack_rows[2 * (EDIT_STACK_CAP + 1)];
        int32_t *heap_rows = NULL;
        int32_t *previous, *current;
        int32_t i, j, result;
        if (m + 1 <= EDIT_STACK_CAP + 1) {
            previous = stack_rows;
            current = stack_rows + (m + 1);
        } else {
            heap_rows = (int32_t *)malloc(sizeof(int32_t) * 2 * (size_t)(m + 1));
            if (heap_rows == NULL)
                return -1;
            previous = heap_rows;
            current = heap_rows + (m + 1);
        }
        for (j = 0; j <= m; j++)
            previous[j] = j <= k ? j : big;
        for (j = 0; j <= m; j++)
            current[j] = big;
        for (i = 1; i <= n; i++) {
            int32_t lo = i - k > 1 ? i - k : 1;
            int32_t hi = m < i + k ? m : i + k;
            int32_t row_min;
            int32_t left_char = left[i - 1];
            int32_t *swap;
            if (i <= k) {
                current[0] = i;
                row_min = i;
            } else {
                current[lo - 1] = big;
                row_min = big;
            }
            for (j = lo; j <= hi; j++) {
                int32_t cost = left_char == right[j - 1] ? 0 : 1;
                int32_t best = previous[j - 1] + cost;
                if (previous[j] + 1 < best)
                    best = previous[j] + 1;
                if (current[j - 1] + 1 < best)
                    best = current[j - 1] + 1;
                if (best > big)
                    best = big;
                current[j] = best;
                if (best < row_min)
                    row_min = best;
            }
            if (row_min > k) {
                free(heap_rows);
                return big;
            }
            if (hi < m)
                current[hi + 1] = big;
            swap = previous;
            previous = current;
            current = swap;
        }
        result = previous[m] <= k ? previous[m] : big;
        free(heap_rows);
        return result;
    }
}

/* ------------------------------------------------------------------ */
/* Theorem 4 CDF band DP (mirrors cdf_bounds)                          */
/* ------------------------------------------------------------------ */

/* p1 = Pr(R[x] = S[y]) from two marshalled positions: iterate the
 * smaller support (ties -> left, like the python reference), in its
 * most-probable-first array order, looking the character up in the
 * other side's support (absent -> 0.0).  Reproduces the inlined
 * accumulation of cdf_bounds bit-for-bit:
 * the certain-position shortcuts of the reference (1.0 comparisons,
 * single pdf lookups) are exactly this loop specialised to support
 * size 1, and multiplying by 1.0 / adding 0.0 is exact in IEEE-754. */
static double
agreement_p1(const int32_t *lc, const double *lp, int32_t ls,
             const int32_t *rc, const double *rp, int32_t rs)
{
    const int32_t *ic, *oc;
    const double *ip, *op;
    int32_t is, os, i, j;
    double p1 = 0.0;
    if (ls > rs) {
        ic = rc; ip = rp; is = rs;
        oc = lc; op = lp; os = ls;
    } else {
        ic = lc; ip = lp; is = ls;
        oc = rc; op = rp; os = rs;
    }
    for (i = 0; i < is; i++) {
        int32_t code = ic[i];
        double other = 0.0;
        for (j = 0; j < os; j++) {
            if (oc[j] == code) {
                other = op[j];
                break;
            }
        }
        p1 += ip[i] * other;
    }
    return p1;
}

/* Band buffers fit the stack through k = 16; larger thresholds heap-
 * allocate (width * (k+1) doubles per buffer, four buffers). */
#define CDF_STACK_K 16
#define CDF_STACK_SIZE ((2 * CDF_STACK_K + 3) * (CDF_STACK_K + 1))

/* Writes L[0..k] to out_l and U[0..k] to out_u.  Returns 0 on success,
 * -1 on allocation failure, -2 on invalid k. */
REPRO_EXPORT int32_t
repro_cdf_bounds(const int32_t *l_offs, const int32_t *l_codes,
                 const double *l_probs, int32_t n, int32_t l_certain,
                 const int32_t *r_offs, const int32_t *r_codes,
                 const double *r_probs, int32_t m, int32_t r_certain,
                 int32_t k, double *out_l, double *out_u)
{
    int32_t k1 = k + 1;
    int32_t width = 2 * k + 3;
    size_t size = (size_t)width * (size_t)k1;
    int32_t length_gap = n > m ? n - m : m - n;
    int32_t j, x, y;
    double stack_buf[4 * CDF_STACK_SIZE];
    double *heap_buf = NULL;
    double *prev_l, *prev_u, *cur_l, *cur_u;

    if (k < 0)
        return -2;
    if (length_gap > k) {
        for (j = 0; j < k1; j++)
            out_l[j] = out_u[j] = 0.0;
        return 0;
    }
    if (l_certain && r_certain) {
        /* One joint world: both bounds collapse to the exact indicator
         * [ed <= j] (the reference short-circuits to the banded integer
         * kernel; a certain string's codes array IS its text). */
        int32_t distance = repro_edit_banded(l_codes, n, r_codes, m, k);
        if (distance < 0)
            return distance;
        for (j = 0; j < k1; j++) {
            double v = distance <= k && j >= distance ? 1.0 : 0.0;
            out_l[j] = out_u[j] = v;
        }
        return 0;
    }

    if (k <= CDF_STACK_K) {
        prev_l = stack_buf;
        prev_u = stack_buf + CDF_STACK_SIZE;
        cur_l = stack_buf + 2 * CDF_STACK_SIZE;
        cur_u = stack_buf + 3 * CDF_STACK_SIZE;
    } else {
        heap_buf = (double *)malloc(sizeof(double) * 4 * size);
        if (heap_buf == NULL)
            return -1;
        prev_l = heap_buf;
        prev_u = heap_buf + size;
        cur_l = heap_buf + 2 * size;
        cur_u = heap_buf + 3 * size;
    }
    memset(prev_l, 0, sizeof(double) * size);
    memset(prev_u, 0, sizeof(double) * size);

    /* Row x = 0: boundary cells (0, y) — exact bounds 1[j >= y]. */
    {
        int32_t ymax = m < k ? m : k;
        for (y = 0; y <= ymax; y++) {
            size_t base = (size_t)(y + k1) * (size_t)k1;
            for (j = 0; j < k1; j++) {
                double v = j >= y ? 1.0 : 0.0;
                prev_l[base + j] = v;
                prev_u[base + j] = v;
            }
        }
    }

    for (x = 1; x <= n; x++) {
        double row_mass = 0.0;
        int32_t y_lo = x - k > 0 ? x - k : 0;
        int32_t y_hi = m < x + k ? m : x + k;
        int32_t y_start;
        const int32_t *lc = l_codes + l_offs[x - 1];
        const double *lp = l_probs + l_offs[x - 1];
        int32_t ls = l_offs[x] - l_offs[x - 1];
        double *swap;
        memset(cur_l, 0, sizeof(double) * size);
        memset(cur_u, 0, sizeof(double) * size);
        if (y_lo == 0) {
            /* Boundary cell (x, 0), x <= k: exact bounds 1[j >= x]. */
            size_t base = (size_t)(k1 - x) * (size_t)k1;
            for (j = 0; j < k1; j++) {
                double v = j >= x ? 1.0 : 0.0;
                cur_l[base + j] = v;
                cur_u[base + j] = v;
            }
            y_start = 1;
        } else {
            y_start = y_lo;
        }
        for (y = y_start; y <= y_hi; y++) {
            size_t out = (size_t)(y - x + k1) * (size_t)k1;
            size_t diag = out;        /* (x-1, y-1) in the previous row */
            size_t up = out - k1;     /* D2 = (x, y-1) in the current row */
            size_t side = out + k1;   /* D3 = (x-1, y) in the previous row */
            const int32_t *rc = r_codes + r_offs[y - 1];
            const double *rp = r_probs + r_offs[y - 1];
            int32_t rs = r_offs[y] - r_offs[y - 1];
            double p1 = agreement_p1(lc, lp, ls, rc, rp, rs);
            if (p1 == 1.0) {
                /* p2 = 0: lower bounds copy the diagonal cell, the
                 * upper transition keeps only its unscaled D2/D3
                 * terms.  Association matches the reference:
                 * a + (b + c). */
                cur_l[out] = prev_l[diag];
                cur_u[out] = prev_u[diag];
                for (j = 1; j < k1; j++) {
                    double u;
                    cur_l[out + j] = prev_l[diag + j];
                    u = prev_u[diag + j]
                        + (cur_u[up + j - 1] + prev_u[side + j - 1]);
                    cur_u[out + j] = u < 1.0 ? u : 1.0;
                }
                row_mass += cur_u[out + k];
                continue;
            }
            {
                /* argmin D_i: the neighbor with lexicographically
                 * greatest L array, same two-step scan as the
                 * reference. */
                const double *best_buf = prev_l;
                size_t best_off = diag;
                for (j = 0; j < k1; j++) {
                    double a = cur_l[up + j];
                    double b = best_buf[best_off + j];
                    if (a != b) {
                        if (a > b) {
                            best_buf = cur_l;
                            best_off = up;
                        }
                        break;
                    }
                }
                for (j = 0; j < k1; j++) {
                    double a = prev_l[side + j];
                    double b = best_buf[best_off + j];
                    if (a != b) {
                        if (a > b) {
                            best_buf = prev_l;
                            best_off = side;
                        }
                        break;
                    }
                }
                if (p1 == 0.0) {
                    /* p2 = 1: diagonal terms vanish; j = 0 cells stay
                     * at the row-reset zero.  Association: (a + b) + c. */
                    for (j = 1; j < k1; j++) {
                        double u;
                        cur_l[out + j] = best_buf[best_off + j - 1];
                        u = (prev_u[diag + j - 1] + cur_u[up + j - 1])
                            + prev_u[side + j - 1];
                        cur_u[out + j] = u < 1.0 ? u : 1.0;
                    }
                    row_mass += cur_u[out + k];
                    continue;
                }
                {
                    double p2 = 1.0 - p1;
                    double value = p1 * prev_l[diag];
                    cur_l[out] = value > 0.0 ? value : 0.0;
                    value = p1 * prev_u[diag];
                    cur_u[out] = value < 1.0 ? value : 1.0;
                    for (j = 1; j < k1; j++) {
                        double from_diag = p1 * prev_l[diag + j];
                        double from_best = p2 * best_buf[best_off + j - 1];
                        double u;
                        cur_l[out + j] =
                            from_diag >= from_best ? from_diag : from_best;
                        u = p1 * prev_u[diag + j];
                        /* Reference: u += (p2*d + cu + ps), i.e.
                         * u + (((p2 * d) + cu) + ps). */
                        u += (p2 * prev_u[diag + j - 1] + cur_u[up + j - 1])
                             + prev_u[side + j - 1];
                        cur_u[out + j] = u < 1.0 ? u : 1.0;
                    }
                    row_mass += cur_u[out + k];
                }
            }
        }
        if (x <= k && y_lo == 0)
            row_mass += cur_u[(size_t)(k1 - x) * (size_t)k1 + k];
        /* Early abort: once every upper bound in a row is 0, all later
         * rows stay 0 (mirror of Section 6.2's prefix pruning). */
        if (row_mass == 0.0) {
            for (j = 0; j < k1; j++)
                out_l[j] = out_u[j] = 0.0;
            free(heap_buf);
            return 0;
        }
        swap = prev_l; prev_l = cur_l; cur_l = swap;
        swap = prev_u; prev_u = cur_u; cur_u = swap;
    }
    {
        size_t base = (size_t)(m - n + k1) * (size_t)k1;
        for (j = 0; j < k1; j++) {
            out_l[j] = prev_l[base + j];
            out_u[j] = prev_u[base + j];
        }
    }
    free(heap_buf);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Section 5 frequency bounds (mirrors frequency_bounds)               */
/* ------------------------------------------------------------------ */

/* E[(count - threshold)^+] from a marshalled distribution — the
 * CharCountDistribution.expected_excess_over transcription.  The
 * python reference computes `tail[0] + (-t) * survival[0]` for t <= 0
 * (int times float); association preserved. */
static double
excess_over(int32_t certain, int32_t uncertain, const double *survival,
            const double *tail, int32_t threshold)
{
    int32_t t = threshold + 1 - certain;
    if (t <= 0)
        return tail[0] + (double)(-t) * survival[0];
    if (t > uncertain)
        return 0.0;
    return tail[t];
}

/* One profile side during the merged-support walk. */
struct freq_side {
    int32_t length;
    int32_t m;                  /* support size */
    const int32_t *chars;       /* ascending code points */
    const int32_t *certain;     /* f^c per char */
    const int32_t *offs;        /* pmf offsets, m + 1 entries */
    const double *pmf;          /* S1, flattened */
    const double *survival;     /* S2, aligned with pmf */
    const double *tail;         /* S3, aligned with pmf */
};

/* The empty distribution (absent character): certain 0, pmf (1.0,). */
static const double EMPTY_ONE[1] = {1.0};

struct freq_dist {
    int32_t certain;
    int32_t uncertain;
    int32_t total;
    const double *pmf;
    const double *survival;
    const double *tail;
    int32_t pmf_len;
};

static void
load_dist(const struct freq_side *side, int32_t index, struct freq_dist *out)
{
    if (index < 0) {
        out->certain = 0;
        out->uncertain = 0;
        out->total = 0;
        out->pmf = EMPTY_ONE;
        out->survival = EMPTY_ONE;
        out->tail = EMPTY_ONE;
        out->pmf_len = 1;
        return;
    }
    out->certain = side->certain[index];
    out->pmf_len = side->offs[index + 1] - side->offs[index];
    out->uncertain = out->pmf_len - 1;
    out->total = out->certain + out->uncertain;
    out->pmf = side->pmf + side->offs[index];
    out->survival = side->survival + side->offs[index];
    out->tail = side->tail + side->offs[index];
}

/* `sum_off mass * E[(f_other - (certain + off))^+]`, the per-character
 * contribution of expected_negative (two-level accumulation: the
 * contribution is summed per character, then added to the running
 * total by the caller — same association as the reference). */
static double
char_contribution(const struct freq_dist *mine, const struct freq_dist *other)
{
    double contribution = 0.0;
    int32_t off;
    for (off = 0; off < mine->pmf_len; off++) {
        double mass = mine->pmf[off];
        if (mass == 0.0)
            continue;
        contribution += mass * excess_over(other->certain, other->uncertain,
                                           other->survival, other->tail,
                                           mine->certain + off);
    }
    return contribution;
}

/* Lemma 6 lower bound (returned) + Theorem 3 upper bound (*out_upper).
 * One merged walk over both ascending supports feeds the Lemma 6
 * counters and both expectation directions; each accumulator receives
 * its per-character adds in ascending character order, exactly like
 * the reference's repeated support walks.  Returns -2 on invalid k. */
REPRO_EXPORT int32_t
repro_frequency_bounds(int32_t l_length, int32_t l_m, const int32_t *l_chars,
                       const int32_t *l_certain, const int32_t *l_offs,
                       const double *l_pmf, const double *l_survival,
                       const double *l_tail, int32_t r_length, int32_t r_m,
                       const int32_t *r_chars, const int32_t *r_certain,
                       const int32_t *r_offs, const double *r_pmf,
                       const double *r_survival, const double *r_tail,
                       int32_t k, double *out_upper)
{
    struct freq_side left = {l_length, l_m, l_chars, l_certain, l_offs,
                             l_pmf, l_survival, l_tail};
    struct freq_side right = {r_length, r_m, r_chars, r_certain, r_offs,
                              r_pmf, r_survival, r_tail};
    int64_t positive = 0, negative = 0;
    double expected_pd = 0.0, expected_nd = 0.0;
    int32_t i = 0, j = 0;
    int64_t lower_fd;

    if (k < 0)
        return -2;
    while (i < left.m || j < right.m) {
        int32_t li = -1, ri = -1;
        struct freq_dist l_dist, r_dist;
        if (i < left.m && (j >= right.m || left.chars[i] <= right.chars[j])) {
            li = i;
            if (j < right.m && right.chars[j] == left.chars[i])
                ri = j++;
            i++;
        } else {
            ri = j++;
        }
        load_dist(&left, li, &l_dist);
        load_dist(&right, ri, &r_dist);
        /* Lemma 6. */
        if (r_dist.total < l_dist.certain)
            positive += l_dist.certain - r_dist.total;
        if (l_dist.total < r_dist.certain)
            negative += r_dist.certain - l_dist.total;
        /* E[pD] = expected_negative(right, left): walk right's pmf
         * against left's tail arrays. */
        if (l_dist.total != 0)
            expected_pd += char_contribution(&r_dist, &l_dist);
        /* E[nD] = expected_negative(left, right). */
        if (r_dist.total != 0)
            expected_nd += char_contribution(&l_dist, &r_dist);
    }
    lower_fd = positive > negative ? positive : negative;
    {
        /* Theorem 3 (chebyshev_upper_bound), association preserved. */
        int32_t diff = left.length - right.length;
        int32_t length_gap = diff < 0 ? -diff : diff;
        double a = (double)length_gap / 2.0
                   + (expected_pd + expected_nd) / 2.0;
        if (a <= (double)k) {
            *out_upper = 1.0;
        } else {
            double min_term;
            double left_nd = (double)left.length * expected_nd;
            double right_pd = (double)right.length * expected_pd;
            double b_squared;
            min_term = left_nd <= right_pd ? left_nd : right_pd;
            b_squared = (double)((int64_t)diff * (int64_t)diff) / 2.0
                        + (double)length_gap * (expected_pd + expected_nd)
                              / 2.0
                        + min_term - a * a;
            if (b_squared <= 0.0) {
                *out_upper = 0.0;
            } else {
                /* Reference: b2 / (b2 + (a - k) ** 2); CPython's
                 * float ** 2 is libm pow(x, 2.0). */
                *out_upper = b_squared
                             / (b_squared + repro_pow(a - (double)k, 2.0));
            }
        }
    }
    return (int32_t)lower_fd;
}
