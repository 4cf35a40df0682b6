/* The compiled training kernels for memlog.kernels: the skip-gram epoch
 * and the negative-sample lookup.
 *
 * Each computes what its numpy reference in kernels.py computes:
 * memlog_sgns_epoch with the same operand types and evaluation order as
 * kernels._sgns_epoch_numpy, memlog_draw_negatives the same integers as
 * np.searchsorted.  Built without fast-math and with -ffp-contract=off,
 * so no operation is fused or reordered and the results are bit-identical
 * to the references.  The Python wrappers in kernels.py check every array
 * (dtype, layout, shape, index and value ranges) before calling; nothing
 * here re-checks them.  Each returns 0 on success and -1 when its scratch
 * buffer cannot be allocated.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

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
