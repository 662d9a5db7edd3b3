/* Compiled event loop of latgas.dynamics.SimState (see the dynamics module
 * docstring for the contract).  It runs SimState._select and _apply on the
 * same candidate draws, RateTable pair arrays and open collision list, so
 * the stream is the Python loop's to the bit; build it with
 * -ffp-contract=off and without -ffast-math.  A candidate is two draws, a
 * gap and a selector; the selector's remainder within its pair, computed
 * with the same IEEE operations as dynamics._pair_of, is the accept
 * variate, and a remainder of 1 or more (a selector rounded past the last
 * pair) rejects.  Entry e of a pair family is direction e % 2 of pair
 * e / 2, the direction that the occupation of the pair's second slot set
 * names.  The exclusion accept test is branch-free: its configuration test
 * and rate test are combined with &.  An open collision pair's direction
 * fires at the bound, so its test is the remainder's alone.  The field
 * order of loop_state matches latgas.eventloop.LoopState. */
#include <stdint.h>

#define BATCH_DONE (-1)
#define CHECK_ABSORBING (-2)
#define CHECK_EVERY 10000000

typedef struct {
    const double *gap, *sel;                    /* candidate batch: standard */
                                                /* exponentials, uniforms */
    const int64_t *ex_slots;                    /* RateTable.ex_slots (P, 2) */
    const double *ex_rate;                      /* and ex_rate (P, 2) */
    const int64_t *col_slots;                   /* RateTable.col_slots (Q, 4) */
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

/* dynamics._pair_of: the pair min(floor(x), n - 1) of selector x >= 0 among
 * n pairs, with the remainder x - pair, the accept variate, in *acc. */
static int64_t pair_of(double x, int64_t n, double *acc)
{
    int64_t p = (int64_t)x;
    p = p > n - 1 ? n - 1 : p;
    *acc = x - (double)p;
    return p;
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
        const int64_t *q = s->col_slots + 4 * p;
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
        double sel = s->sel[pos] * rate, acc;
        const int64_t *q;
        int64_t fam, n_slots;
        t += s->gap[pos++] * scale;
        if (sel < s->w_ex) {
            int64_t p = pair_of(sel / s->bound_ex, s->n_ex, &acc);
            fam = 0, n_slots = 2, q = s->ex_slots + 2 * p;
            int64_t entry = 2 * p + eta[q[1]];
            int ok = (eta[q[0]] != eta[q[1]]) & (acc * s->bound_ex < s->ex_rate[entry]);
            idx = ok ? entry : -1;
        } else if (sel < thr2) {
            int64_t p = s->open[pair_of((sel - s->w_ex) / s->bound_col, s->n_open, &acc)];
            fam = 1, n_slots = 4, q = s->col_slots + 4 * p;
            idx = acc < 1.0 ? 2 * p + eta[q[2]] : -1;
        } else {
            int64_t p = pair_of((sel - thr2) / s->bound_bd, s->n_bd, &acc);
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
