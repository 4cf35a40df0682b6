/* The compiled training kernels for memlog.kernels: the skip-gram epoch,
 * the negative-sample lookup and the growth of one boosted tree.
 *
 * Each computes what its numpy reference in kernels.py computes:
 * memlog_sgns_epoch, one update rule for every target of a skip-gram pair,
 * with the same operand types and evaluation order per target as
 * kernels._sgns_epoch_numpy (the scores of a pair's distinct targets run
 * side by side, each still one sequential sum; a pair with a repeated
 * target runs in sequence); memlog_draw_negatives the same integers as
 * np.searchsorted; memlog_grow_tree the same tree_node records as
 * kernels._grow_tree_numpy.  Built with -O3 but without fast-math and
 * with -ffp-contract=off, so no operation is fused or reordered (gcc
 * vectorizes only element-wise updates and side-by-side dot products, one
 * per lane; every sum stays sequential) and the results are bit-identical
 * to the references.  The source is C11 and builds clean under -std=c11
 * -Wall -Wextra -Wpedantic -Werror; outside the standard are tree_node's
 * pack pragma and the epoch's guarded attributes, which gcc and clang
 * honour.  The Python wrappers in kernels.py check every array
 * (dtype, layout, shape, index and value ranges) before calling; nothing
 * here re-checks them.  Each returns 0 on success and -1 when its scratch
 * buffers cannot be allocated (memlog_grow_tree also 1, see below).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------------
 * skip-gram with negative sampling: kernels._sgns_epoch_numpy, whose
 * comment states the one rule this loop applies to every target of a pair
 *
 * A target's score u . v reads v, which moves only after the pair's last
 * target, and u, which only that target moves.  So when a pair's targets
 * are pairwise distinct, no target's update touches another's score, and
 * the scores are computed first, side by side in blocks of up to 8 (an add
 * takes several cycles, and a lone chain waits on each).  Each is
 * still its own sequential float64 sum over d, so it has the bits of the
 * sequential loop.  A pair with a repeated target scores each target just
 * before its update, as the reference does.
 *
 * The loss is kept as kernels.py states it: the positive z in one sum and
 * every target's 1 + e in one running product, renormalised by frexp above
 * 2^512, so an epoch makes one log call instead of a log1p per target.
 *
 * On x86-64 with glibc, gcc and clang also build an AVX2 copy of the epoch,
 * with block_dots inlined into each copy, and pick one at load time
 * (target_clones).  The copy's wider vectors round each lane as the
 * baseline's do and its sums stay sequential, so both give the same bits.
 * Elsewhere SGNS_CLONES and SGNS_INLINED are empty.
 */

#define SGNS_BLOCK 8
#define LN2 0.6931471805599453

#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define SGNS_CLONES __attribute__((target_clones("avx2", "default")))
#define SGNS_INLINED inline __attribute__((always_inline))
#endif
#endif
#ifndef SGNS_CLONES
#define SGNS_CLONES
#define SGNS_INLINED
#endif

/* score[c] = u[c] . v for the m <= SGNS_BLOCK rows u[c], one chain each.
 * Called with a constant m, so the chains are unrolled into registers
 * rather than padded to a full block. */
static inline void dots(int m, float *const *u, const float *v, int64_t dim, double *score)
{
    double s[SGNS_BLOCK] = {0.0};
    for (int64_t d = 0; d < dim; d++)
        for (int c = 0; c < m; c++)
            s[c] += (double)(u[c][d] * v[d]);
    for (int c = 0; c < m; c++)
        score[c] = s[c];
}

static SGNS_INLINED void block_dots(int m, float *const *u, const float *v, int64_t dim, double *score)
{
    switch (m) {
    case 1: dots(1, u, v, dim, score); break;
    case 2: dots(2, u, v, dim, score); break;
    case 3: dots(3, u, v, dim, score); break;
    case 4: dots(4, u, v, dim, score); break;
    case 5: dots(5, u, v, dim, score); break;
    case 6: dots(6, u, v, dim, score); break;
    case 7: dots(7, u, v, dim, score); break;
    default: dots(SGNS_BLOCK, u, v, dim, score); break;
    }
}

SGNS_CLONES
int memlog_sgns_epoch(const int32_t *ids, const int64_t *offsets, int64_t n_sentences,
                      float *vin, float *vout, int64_t dim,
                      const int32_t *negatives, int64_t k, int64_t window,
                      double lr0, double lr_floor, int64_t pair_base, int64_t total_pairs,
                      double *loss_out)
{
    /* per pair: v's summed pulls, and each target's row and score */
    float *grad_v = malloc((dim > 0 ? (size_t)dim : 1) * sizeof(float));
    float **rows = malloc((size_t)(k + 1) * sizeof *rows);
    double *scores = malloc((size_t)(k + 1) * sizeof *scores);
    if (!grad_v || !rows || !scores) {
        free(grad_v);
        free(rows);
        free(scores);
        return -1;
    }
    int64_t pair = 0;
    /* the loss is loss_z + log(loss_prod * 2^loss_exp) */
    double loss_z = 0.0, loss_prod = 1.0;
    int64_t loss_exp = 0;
    for (int64_t s = 0; s < n_sentences; s++) {
        int64_t start = offsets[s], stop = offsets[s + 1];
        for (int64_t i = start; i < stop; i++) {
            float *v = vin + (int64_t)ids[i] * dim;
            int64_t lo = i - window > start ? i - window : start;
            int64_t hi = i + window < stop - 1 ? i + window : stop - 1;
            for (int64_t j = lo; j <= hi; j++) {
                if (j == i)
                    continue;
                int32_t context = ids[j];
                double lr = lr0 * (1.0 - (double)(pair_base + pair) / (double)total_pairs);
                if (lr < lr_floor)
                    lr = lr_floor;
                for (int64_t d = 0; d < dim; d++)
                    grad_v[d] = 0.0f;

                /* target 0 is the context (label 1), the rest the negatives
                 * that are not the context (label 0) */
                const int32_t *drawn = negatives + pair * k;
                int64_t m = 0;
                rows[m++] = vout + (int64_t)context * dim;
                int distinct = 1;
                for (int64_t n = 0; n < k; n++) {
                    if (drawn[n] == context)
                        continue;
                    float *u = vout + (int64_t)drawn[n] * dim;
                    for (int64_t a = 1; a < m && distinct; a++)
                        distinct = rows[a] != u;
                    rows[m++] = u;
                }
                if (distinct)
                    for (int64_t b = 0; b < m; b += SGNS_BLOCK)
                        block_dots(m - b < SGNS_BLOCK ? (int)(m - b) : SGNS_BLOCK, rows + b, v,
                                   dim, scores + b);

                for (int64_t n = 0; n < m; n++) {
                    float *u = rows[n];
                    double score = 0.0;
                    if (distinct)
                        score = scores[n];
                    else
                        for (int64_t d = 0; d < dim; d++)
                            score += (double)(u[d] * v[d]);
                    double e = exp(-fabs(score)), denom = 1.0 + e;
                    double sig = score >= 0.0 ? 1.0 / denom : e / denom;
                    double z = n == 0 ? -score : score;
                    if (z > 0.0)
                        loss_z += z;
                    loss_prod *= denom;
                    if (loss_prod > 0x1p512) {
                        int ex;
                        loss_prod = frexp(loss_prod, &ex);
                        loss_exp += ex;
                    }
                    /* not label - sig: 0.0 - 0.0 is +0.0 where -sig is -0.0 */
                    float g = (float)((n == 0 ? 1.0 - sig : -sig) * lr);
                    for (int64_t d = 0; d < dim; d++) {
                        grad_v[d] += g * u[d];
                        u[d] += g * v[d];
                    }
                }
                for (int64_t d = 0; d < dim; d++)
                    v[d] += grad_v[d];
                pair++;
            }
        }
    }
    free(grad_v);
    free(rows);
    free(scores);
    *loss_out = loss_z + (log(loss_prod) + (double)loss_exp * LN2);
    return 0;
}

/* ------------------------------------------------------------------------
 * negative-sample lookup: kernels._draw_negatives_numpy
 *
 * out[i] is the first k with cdf[k] > draws[i], as np.searchsorted(cdf,
 * draws, side="right") finds it.  A guide table (Chen and Asau's indexed
 * search) gives each draw u a start near its answer: start[b] is the first
 * k with cdf[k] > b/m, for buckets b = 0..m, m = len(cdf).  The draw
 * starts at start[(int64_t)(u*m)], then steps back while cdf[k-1] > u and
 * forward while cdf[k] <= u.  Both loops end at the one k with cdf[k-1] <=
 * u < cdf[k] in a non-decreasing cdf, so the answer is exact however u*m
 * rounds.  The wrapper guarantees a finite non-decreasing cdf and draws in
 * [0, 1), so (int64_t)(u*m) is defined and non-negative, and clamping it
 * to m keeps it inside start[].
 */

int memlog_draw_negatives(const double *cdf, int64_t m, const double *draws, int64_t n,
                          int32_t *out)
{
    int64_t *start = malloc((size_t)(m + 1) * sizeof(int64_t));
    if (start == NULL)
        return -1;
    int64_t k = 0;
    for (int64_t b = 0; b <= m; b++) {
        double edge = (double)b / (double)m;
        while (k < m && cdf[k] <= edge)
            k++;
        start[b] = k;
    }
    for (int64_t i = 0; i < n; i++) {
        double u = draws[i];
        int64_t b = (int64_t)(u * (double)m);
        k = start[b > m ? m : b];
        while (k > 0 && cdf[k - 1] > u)
            k--;
        while (k < m && cdf[k] <= u)
            k++;
        out[i] = (int32_t)k;
    }
    free(start);
    return 0;
}

/* ------------------------------------------------------------------------
 * boosted-tree growth: kernels._grow_tree_numpy
 *
 * Grows one tree over the n_rows columns of the feature-major Xt
 * (n_features x n_rows).  order[f] lists every row by ascending Xt[f],
 * ties by row index; the kernel partitions it in place, so a node's rows
 * always occupy the same column range [start, start + n) of rows[] and of
 * each order[f].  The range of rows[] stays ascending, and each order[f]
 * range stays sorted, because every partition is stable.
 *
 * Per node, as the reference does it: totals summed in ascending row
 * order; then, below max_depth, kernels.best_split: one sequential
 * prefix-sum pass per feature with the same gain expression, cuts between
 * equal values excluded, NaN gains skipped, and the first cut in
 * feature-major order within the tie band of the best gain.  Rows with
 * Xt[feature] < threshold go left.
 *
 * The threshold between the sorted values a < b is their midpoint, or b
 * when the midpoint is not in (a, b] (rounded onto a, or a + b overflowed),
 * so each child keeps a row.
 *
 * Nodes are written in preorder as tree_node records, the bytes of
 * kernels._NODE and of the model file, and leaf_of_row[r] is the leaf row
 * r lands in.  An explicit stack stands in for the reference's recursion,
 * so no depth overflows the C stack.  When every node keeps a row, n_rows
 * rows give at most capacity = 2 n_rows - 1 nodes, and the pending nodes on
 * the stack, which hold disjoint rows, are at most n_rows.  A split that
 * sent every row one way would break that, so the kernel stops there and
 * returns 1; the threshold rule and the wrapper's refusal of NaN leave no
 * such split.
 */

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "tree_node records are little-endian, as kernels._NODE declares them"
#endif

#pragma pack(push, 1)
typedef struct {
    int32_t feature; /* -1 for a leaf */
    double threshold;
    int32_t left, right;
    double value;
} tree_node;
#pragma pack(pop)
_Static_assert(sizeof(tree_node) == 28, "tree_node must match the 28-byte kernels._NODE");

typedef struct {
    int64_t start, n, depth;
    int64_t right_of; /* the node whose right child this is, or -1 */
} pending_node;

/* The sum of a over the rows, added one at a time as np.cumsum adds them:
 * -0.0 is the identity of IEEE addition, so the first term enters exactly. */
static double row_sum(const double *a, const int64_t *rows, int64_t n)
{
    double sum = -0.0;
    for (int64_t i = 0; i < n; i++)
        sum += a[rows[i]];
    return n ? sum : 0.0;
}

/* gains[j] for the cut that leaves the first lo + j of the n sorted rows on
 * the left, j = 0..n-2lo, or -inf between equal values.  Returns the
 * largest gain, NaN skipped as np.fmax skips it, or -inf when none. */
static double scan_feature(const int64_t *ord, int64_t n, int64_t lo, const double *x,
                           const double *g, const double *h, double gtot, double htot,
                           double lam, double parent_term, double *gains)
{
    double gl = -0.0, hl = -0.0, best = -INFINITY;
    for (int64_t p = 0; p < n - lo; p++) {
        gl += g[ord[p]];
        hl += h[ord[p]];
        if (p + 1 < lo)
            continue;
        double gain = -INFINITY;
        if (x[ord[p]] != x[ord[p + 1]]) {
            double gr = gtot - gl, hr = htot - hl;
            gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_term);
            if (gain > best)
                best = gain;
        }
        gains[p + 1 - lo] = gain;
    }
    return best;
}

/* Moves the entries of a[0..n) whose row goes left to the front, both
 * sides in their old order; returns how many went left. */
static int64_t partition(int64_t *a, int64_t n, const unsigned char *goes_left, int64_t *spill)
{
    int64_t n_left = 0, n_right = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t r = a[i];
        if (goes_left[r])
            a[n_left++] = r;
        else
            spill[n_right++] = r;
    }
    memcpy(a + n_left, spill, (size_t)n_right * sizeof *a);
    return n_left;
}

int memlog_grow_tree(const double *Xt, int64_t *order, int64_t n_features, int64_t n_rows,
                     const double *g, const double *h, double lam, int64_t min_leaf,
                     int64_t max_depth, double tie_rel, double tie_abs, int64_t capacity,
                     tree_node *nodes, int64_t *leaf_of_row, int64_t *n_nodes)
{
    size_t rows_n = n_rows > 0 ? (size_t)n_rows : 1;
    int64_t *rows = malloc(rows_n * sizeof *rows);
    int64_t *spill = malloc(rows_n * sizeof *spill);
    unsigned char *goes_left = malloc(rows_n);
    double *gains = malloc(rows_n * sizeof *gains);
    double *feature_best = malloc((n_features > 0 ? (size_t)n_features : 1) * sizeof *feature_best);
    pending_node *stack = malloc((size_t)capacity * sizeof *stack);
    int status = -1;
    if (!rows || !spill || !goes_left || !gains || !feature_best || !stack)
        goto done;

    for (int64_t r = 0; r < n_rows; r++)
        rows[r] = r;
    int64_t lo = min_leaf > 1 ? min_leaf : 1, count = 0, top = 0;
    stack[top++] = (pending_node){0, n_rows, 0, -1};
    status = 0;
    while (top > 0) {
        pending_node at = stack[--top];
        int64_t node = count++;
        if (at.right_of >= 0)
            nodes[at.right_of].right = (int32_t)node;
        int64_t *seg = rows + at.start, n = at.n;
        double gsum = row_sum(g, seg, n), hsum = row_sum(h, seg, n);

        int64_t best_f = -1, best_j = 0;
        if (at.depth < max_depth && n >= 2 * lo) {
            double parent_term = gsum * gsum / (hsum + lam), best = -INFINITY;
            for (int64_t f = 0; f < n_features; f++) {
                feature_best[f] = scan_feature(order + f * n_rows + at.start, n, lo,
                                               Xt + f * n_rows, g, h, gsum, hsum, lam, parent_term,
                                               gains);
                if (feature_best[f] > best)
                    best = feature_best[f];
            }
            if (best > 0.0) {
                /* NaN when best is infinite, which admits no cut */
                double cutoff = best - (tie_rel * fabs(best) + tie_abs);
                for (int64_t f = 0; f < n_features && best_f < 0; f++) {
                    if (!(feature_best[f] >= cutoff && feature_best[f] > 0.0))
                        continue;
                    const int64_t *ord = order + f * n_rows + at.start;
                    scan_feature(ord, n, lo, Xt + f * n_rows, g, h, gsum, hsum, lam, parent_term,
                                 gains);
                    for (best_j = 0; !(gains[best_j] >= cutoff && gains[best_j] > 0.0); best_j++)
                        ;
                    best_f = f;
                }
            }
        }

        if (best_f < 0) {
            double denom = hsum + lam;
            nodes[node] = (tree_node){-1, 0.0, -1, -1, denom != 0.0 ? -gsum / denom : 0.0};
            for (int64_t i = 0; i < n; i++)
                leaf_of_row[seg[i]] = node;
            continue;
        }

        const double *x = Xt + best_f * n_rows;
        const int64_t *ord = order + best_f * n_rows + at.start;
        double a = x[ord[lo - 1 + best_j]], b = x[ord[lo + best_j]], t = (a + b) / 2.0;
        if (!(a < t && t <= b))
            t = b;
        for (int64_t i = 0; i < n; i++)
            goes_left[seg[i]] = x[seg[i]] < t;
        int64_t n_left = partition(seg, n, goes_left, spill);
        if (n_left == 0 || n_left == n) {
            status = 1;
            goto done;
        }
        for (int64_t f = 0; f < n_features; f++)
            partition(order + f * n_rows + at.start, n, goes_left, spill);
        /* the left child is taken next, so it is node + 1 and its subtree
         * precedes the right child, which is linked when it is taken */
        nodes[node] = (tree_node){(int32_t)best_f, t, (int32_t)(node + 1), -1, 0.0};
        stack[top++] = (pending_node){at.start + n_left, n - n_left, at.depth + 1, node};
        stack[top++] = (pending_node){at.start, n_left, at.depth + 1, -1};
    }
    *n_nodes = count;

done:
    free(rows);
    free(spill);
    free(goes_left);
    free(gains);
    free(feature_best);
    free(stack);
    return status;
}
