/* Compiled event loop of latgas.dynamics.SimState (see the dynamics module
 * docstring for the contract).  It runs SimState._select and _apply on the
 * same candidate draws, RateTable pair arrays and open collision list, so
 * the stream is the Python loop's to the bit; build it with
 * -ffp-contract=off and without -ffast-math.  The accept tests are
 * branch-free: they make the Python loop's comparisons without its early
 * exits and pick the same entry.  The configuration test and the rate test
 * are combined with &, and a collision direction's entry is the count of
 * its running rate sums that the accept variate reaches, which is
 * ReversiblePairs.pick's entry only because the running sums never
 * decrease.  The field order of loop_state matches
 * latgas.eventloop.LoopState. */
#include <stdint.h>

#define BATCH_DONE (-1)
#define CHECK_ABSORBING (-2)
#define CHECK_EVERY 10000000

typedef struct {
    const double *gap, *sel, *acc;              /* candidate batch: standard */
                                                /* exponentials, uniforms, uniforms */
    const int64_t *ex_pair, *ex_entry;          /* RateTable.ex_pairs: 2 slots, */
    const double *ex_cum;                       /* 1 entry per direction */
    const int64_t *col_pair, *col_entry;        /* RateTable.col_pairs: 4 slots, */
    const double *col_cum;                      /* 4 entries per direction */
    const int64_t *bd_slot;
    const double *bd_birth, *bd_death;
    uint8_t *eta;                               /* flat configuration */
    int64_t *kind_counts;                       /* applied events per family */
    int64_t *open, *where;                      /* open collision pairs; each pair's */
                                                /* place in open, or -1 */
    int64_t n_cand, n_ex, n_bd;                 /* candidates; pairs per family */
    int64_t nv, groups, n_open;                 /* slots and collision pairs per site */
    double bound_ex, bound_col, bound_bd;       /* largest direction totals */
    double w_ex, w_bd, time_scale;              /* static family weights; N^2 */
    double t;                                   /* clock, in/out */
    int64_t pos, tried, idx;                    /* next candidate, rejections, pending entry */
} loop_state;

static int64_t pair_of(double sel, double bound, int64_t n)
{
    int64_t p = (int64_t)(sel / bound);
    return p > n - 1 ? n - 1 : p;
}

/* The candidate rate W_ex + bound_col * n_open + W_bd, with the collision
 * threshold W_ex + bound_col * n_open in *thr2. */
static double candidate_rate(const loop_state *s, double *thr2)
{
    *thr2 = s->w_ex + s->bound_col * (double)s->n_open;
    return *thr2 + s->w_bd;
}

/* SimState._retest: append the site's collision pairs that opened to the
 * open list and swap-remove those that closed. */
static void retest(loop_state *s, int64_t site)
{
    for (int64_t p = site * s->groups; p < (site + 1) * s->groups; p++) {
        const int64_t *q = s->col_pair + 4 * p;
        int open = (s->eta[q[0]] == s->eta[q[1]]) & (s->eta[q[1]] != s->eta[q[2]])
                   & (s->eta[q[2]] == s->eta[q[3]]);
        int64_t k = s->where[p];
        if (open && k < 0) {
            s->where[p] = s->n_open;
            s->open[s->n_open++] = p;
        } else if (!open && k >= 0) {
            int64_t last = s->open[--s->n_open];
            s->open[k] = last;
            s->where[last] = k;
            s->where[p] = -1;
        }
    }
}

/* Run candidates from s->pos: apply accepted events with t < stop, and stop
 * at the first accepted one with t >= stop, returning its family (0, 1, 2)
 * with its catalog entry in s->idx, unapplied.  Returns BATCH_DONE when the
 * batch runs out, and CHECK_ABSORBING after every CHECK_EVERY consecutive
 * rejections or when the candidate rate is zero.  An event flips every slot
 * of its pair, then the collision pairs of its sites are re-tested. */
int64_t run_events(loop_state *s, double stop)
{
    uint8_t *eta = s->eta;
    double t = s->t, thr2, rate = candidate_rate(s, &thr2), scale;
    int64_t pos = s->pos, tried = s->tried, kind = BATCH_DONE, idx = 0;

    if (rate == 0.0)
        return CHECK_ABSORBING;
    scale = 1.0 / (rate * s->time_scale);
    while (pos < s->n_cand) {
        double sel = s->sel[pos] * rate, acc = s->acc[pos];
        const int64_t *q;
        int64_t fam, n_slots;
        t += s->gap[pos++] * scale;
        if (sel < s->w_ex) {
            int64_t p = pair_of(sel, s->bound_ex, s->n_ex);
            fam = 0, n_slots = 2, q = s->ex_pair + 2 * p;
            int64_t dir = 2 * p + eta[q[1]], entry = s->ex_entry[dir];
            int ok = (eta[q[0]] != eta[q[1]]) & (acc * s->bound_ex < s->ex_cum[dir]);
            idx = ok ? entry : -1;
        } else if (sel < thr2) {
            int64_t p = s->open[pair_of(sel - s->w_ex, s->bound_col, s->n_open)];
            fam = 1, n_slots = 4, q = s->col_pair + 4 * p;
            int64_t base = 4 * (2 * p + eta[q[2]]);
            const double *c = s->col_cum + base;
            double u = acc * s->bound_col;
            int64_t k = (u >= c[0]) + (u >= c[1]) + (u >= c[2]) + (u >= c[3]);
            idx = k < 4 ? s->col_entry[base + k] : -1;
        } else {
            int64_t p = pair_of(sel - thr2, s->bound_bd, s->n_bd);
            fam = 2, n_slots = 1, q = s->bd_slot + p;
            double flip = (eta[*q] ? s->bd_death : s->bd_birth)[p];
            idx = acc * s->bound_bd < flip ? p : -1;
        }
        if (idx < 0) {
            if (++tried % CHECK_EVERY == 0) {
                kind = CHECK_ABSORBING;
                break;
            }
            continue;
        }
        tried = 0;
        if (t >= stop) {
            kind = fam;
            break;
        }
        for (int64_t k = 0; k < n_slots; k++)
            eta[q[k]] ^= 1;
        s->kind_counts[fam]++;
        if (s->groups) {
            int64_t a = q[0] / s->nv, b = q[n_slots - 1] / s->nv, before = s->n_open;
            retest(s, a < b ? a : b);
            if (a != b)
                retest(s, a < b ? b : a);
            if (s->n_open != before) {
                rate = candidate_rate(s, &thr2);
                if (rate == 0.0) {
                    kind = CHECK_ABSORBING;
                    break;
                }
                scale = 1.0 / (rate * s->time_scale);
            }
        }
    }
    s->t = t;
    s->pos = pos;
    s->tried = tried;
    s->idx = idx;
    return kind;
}
