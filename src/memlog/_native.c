/* Compiled training kernels for memlog.kernels.
 *
 * Each function computes what the numpy reference named in its comment
 * (kernels._sgns_epoch_numpy, kernels._best_split_numpy) computes, with
 * the same operand types and evaluation order.  Built without fast-math
 * and with -ffp-contract=off, so no operation is fused or reordered and
 * the results are bit-identical to the references.  The Python wrappers
 * in kernels.py check every array (dtype, layout, shape, index ranges)
 * before calling; nothing here re-checks them.  Functions return 0 on
 * success and -1 when a work buffer cannot be allocated.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------------
 * skip-gram with negative sampling: kernels._sgns_epoch_numpy
 */

int memlog_sgns_epoch(const int32_t *ids, const int64_t *offsets, int64_t n_sentences,
                      float *vin, float *vout, int64_t dim,
                      const int32_t *negatives, int64_t k, int64_t window,
                      double lr0, double lr_floor, int64_t pair_base, int64_t total_pairs,
                      double *loss_out)
{
    float *grad_v = malloc((dim > 0 ? (size_t)dim : 1) * sizeof(float));
    if (grad_v == NULL)
        return -1;
    int64_t pair = 0;
    double loss = 0.0;
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

                float *u = vout + (int64_t)context * dim;
                double score = 0.0;
                for (int64_t d = 0; d < dim; d++)
                    score += (double)(u[d] * v[d]);
                double sig, e;
                if (score >= 0.0) {
                    sig = 1.0 / (1.0 + exp(-score));
                    loss += log1p(exp(-score));
                } else {
                    e = exp(score);
                    sig = e / (1.0 + e);
                    loss += log1p(e) - score;
                }
                float g = (float)((1.0 - sig) * lr);
                for (int64_t d = 0; d < dim; d++) {
                    grad_v[d] += g * u[d];
                    u[d] += g * v[d];
                }

                for (int64_t n = 0; n < k; n++) {
                    int32_t target = negatives[pair * k + n];
                    if (target == context)
                        continue;
                    u = vout + (int64_t)target * dim;
                    score = 0.0;
                    for (int64_t d = 0; d < dim; d++)
                        score += (double)(u[d] * v[d]);
                    if (score >= 0.0) {
                        e = exp(-score);
                        sig = 1.0 / (1.0 + e);
                        loss += log1p(e) + score;
                    } else {
                        e = exp(score);
                        sig = e / (1.0 + e);
                        loss += log1p(e);
                    }
                    g = (float)(-sig * lr);
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
    *loss_out = loss;
    return 0;
}

/* ------------------------------------------------------------------------
 * gradient-boosted tree split search: kernels._best_split_numpy
 */

/* numpy's sort order: NaN after every number. */
static int sorts_before(double a, double b)
{
    return a < b || (b != b && a == a);
}

/* np.argsort(x, kind="mergesort"): a stable bottom-up merge sort. */
static void argsort_stable(const double *x, int64_t n, int64_t *order, int64_t *tmp)
{
    for (int64_t i = 0; i < n; i++)
        order[i] = i;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n - width; lo += 2 * width) {
            int64_t mid = lo + width;
            int64_t hi = mid + width < n ? mid + width : n;
            int64_t a = lo, b = mid, out = lo;
            while (a < mid && b < hi)
                tmp[out++] = sorts_before(x[order[b]], x[order[a]]) ? order[b++] : order[a++];
            while (a < mid)
                tmp[out++] = order[a++];
            while (b < hi)
                tmp[out++] = order[b++];
            memcpy(order + lo, tmp + lo, (size_t)(hi - lo) * sizeof(int64_t));
        }
    }
}

/* The largest of this feature's gains in _best_split_numpy's feature_gains;
 * -INFINITY when no candidate is valid. */
static double scan_feature_best(const double *x, const int64_t *order, int64_t n,
                                const double *g, const double *h, double gtot, double htot,
                                double lam, int64_t min_leaf, double parent)
{
    double best = -INFINITY, cg = 0.0, ch = 0.0;
    for (int64_t i = 0; i < n - 1; i++) {
        int64_t row = order[i];
        cg += g[row];
        ch += h[row];
        if (x[order[i]] == x[order[i + 1]])
            continue;
        if (i + 1 < min_leaf || n - i - 1 < min_leaf)
            continue;
        double gr = gtot - cg, hr = htot - ch;
        double gain = 0.5 * (cg * cg / (ch + lam) + gr * gr / (hr + lam) - parent);
        if (gain > best)
            best = gain;
    }
    return best;
}

/* The first of this feature's gains in _best_split_numpy's feature_gains
 * that reaches the cutoff; returns 1 and sets *threshold, *gain on a hit. */
static int scan_feature_winner(const double *x, const int64_t *order, int64_t n,
                               const double *g, const double *h, double gtot, double htot,
                               double lam, int64_t min_leaf, double parent, double cutoff,
                               double *threshold, double *gain_out)
{
    double cg = 0.0, ch = 0.0;
    for (int64_t i = 0; i < n - 1; i++) {
        int64_t row = order[i];
        cg += g[row];
        ch += h[row];
        if (x[order[i]] == x[order[i + 1]])
            continue;
        if (i + 1 < min_leaf || n - i - 1 < min_leaf)
            continue;
        double gr = gtot - cg, hr = htot - ch;
        double gain = 0.5 * (cg * cg / (ch + lam) + gr * gr / (hr + lam) - parent);
        if (gain >= cutoff && gain > 0.0) {
            *threshold = (x[order[i]] + x[order[i + 1]]) / 2.0;
            *gain_out = gain;
            return 1;
        }
    }
    return 0;
}

/* Copy column f of the row-major n x n_features matrix X and argsort it. */
static void sorted_column(const double *X, int64_t n, int64_t n_features, int64_t f,
                          double *col, int64_t *order, int64_t *tmp)
{
    for (int64_t i = 0; i < n; i++)
        col[i] = X[i * n_features + f];
    argsort_stable(col, n, order, tmp);
}

int memlog_best_split(const double *X, int64_t n, int64_t n_features,
                      const double *g, const double *h, double lam, int64_t min_leaf,
                      double tie_rel, double tie_abs,
                      int64_t *feature_out, double *threshold_out, double *gain_out)
{
    *feature_out = -1;
    *threshold_out = 0.0;
    *gain_out = 0.0;
    if (n < 2 * min_leaf || n_features == 0)
        return 0;
    double gtot = 0.0, htot = 0.0;
    for (int64_t i = 0; i < n; i++) {
        gtot += g[i];
        htot += h[i];
    }
    double parent = gtot * gtot / (htot + lam);

    size_t rows = n > 0 ? (size_t)n : 1;
    double *col = malloc(rows * sizeof(double));
    int64_t *order = malloc(rows * sizeof(int64_t));
    int64_t *tmp = malloc(rows * sizeof(int64_t));
    double *feature_best = malloc((size_t)n_features * sizeof(double));
    int status = -1;
    if (col == NULL || order == NULL || tmp == NULL || feature_best == NULL)
        goto done;
    status = 0;

    for (int64_t f = 0; f < n_features; f++) {
        sorted_column(X, n, n_features, f, col, order, tmp);
        feature_best[f] = scan_feature_best(col, order, n, g, h, gtot, htot, lam, min_leaf, parent);
    }

    double best = feature_best[0];
    for (int64_t f = 1; f < n_features; f++)
        if (feature_best[f] > best)
            best = feature_best[f];
    if (!(best > 0.0))
        goto done;

    double cutoff = best - (tie_rel * fabs(best) + tie_abs);
    for (int64_t f = 0; f < n_features; f++) {
        if (feature_best[f] >= cutoff) {
            double threshold, gain;
            sorted_column(X, n, n_features, f, col, order, tmp);
            if (scan_feature_winner(col, order, n, g, h, gtot, htot, lam, min_leaf, parent,
                                    cutoff, &threshold, &gain)) {
                *feature_out = f;
                *threshold_out = threshold;
                *gain_out = gain;
                goto done;
            }
        }
    }

done:
    free(col);
    free(order);
    free(tmp);
    free(feature_best);
    return status;
}
