/* Compiled event loop of latgas.dynamics.SimState (see the dynamics module
 * docstring for the contract).  It mirrors SimState._select and _apply step
 * for step on the same candidate draws and RateTable pair arrays, so the
 * stream is the Python loop's to the bit; build it with -ffp-contract=off and
 * without -ffast-math.  The field order of loop_state matches
 * latgas.eventloop.LoopState. */
#include <stdint.h>

#define BATCH_DONE (-1)
#define CHECK_ABSORBING (-2)
#define CHECK_EVERY 10000000

typedef struct {
    const double *gap, *sel, *acc;              /* candidate batch */
    const int64_t *ex_pair, *ex_entry;          /* RateTable.ex_pairs: 2 slots, */
    const double *ex_cum;                       /* 1 entry per direction */
    const int64_t *col_pair, *col_entry;        /* RateTable.col_pairs: 4 slots, */
    const double *col_cum;                      /* 4 entries per direction */
    const int64_t *bd_slot;
    const double *bd_birth, *bd_death;
    uint8_t *eta;                               /* flat configuration */
    int64_t *kind_counts;                       /* applied events per family */
    int64_t n_cand, n_ex, n_col, n_bd;          /* candidates; pairs per family */
    double bound_ex, bound_col, bound_bd, thr1, thr2;
    double t;                                   /* clock, in/out */
    int64_t pos, tried, idx;                    /* next candidate, rejections, pending entry */
} loop_state;

/* ReversiblePairs.pick: of the `width` entries of direction dir (pair p,
 * direction j: dir = 2p + j), the one whose running rate sum first exceeds u,
 * or -1. */
static int64_t pick(const int64_t *entry, const double *cum, int64_t width,
                    int64_t dir, double u)
{
    for (int64_t k = dir * width; k < (dir + 1) * width; k++)
        if (u < cum[k])
            return entry[k];
    return -1;
}

static int64_t pair_of(double sel, double bound, int64_t n)
{
    int64_t p = (int64_t)(sel / bound);
    return p > n - 1 ? n - 1 : p;
}

/* Run candidates from s->pos: apply accepted events with t < stop, and stop
 * at the first accepted one with t >= stop, returning its family (0, 1, 2)
 * with its catalog entry in s->idx, unapplied.  Returns BATCH_DONE when the
 * batch runs out and CHECK_ABSORBING after every CHECK_EVERY consecutive
 * rejections.  An event flips every slot of its pair. */
int64_t run_events(loop_state *s, double stop)
{
    uint8_t *eta = s->eta;
    double t = s->t;
    int64_t pos = s->pos, tried = s->tried, kind = BATCH_DONE, idx = 0;

    while (pos < s->n_cand) {
        double sel = s->sel[pos], acc = s->acc[pos];
        const int64_t *q;
        int64_t fam, n_slots;
        t += s->gap[pos++];
        idx = -1;
        if (sel < s->thr1) {
            int64_t p = pair_of(sel, s->bound_ex, s->n_ex);
            fam = 0, n_slots = 2, q = s->ex_pair + 2 * p;
            if (eta[q[0]] != eta[q[1]])
                idx = pick(s->ex_entry, s->ex_cum, 1, 2 * p + eta[q[1]], acc * s->bound_ex);
        } else if (sel < s->thr2) {
            int64_t p = pair_of(sel - s->thr1, s->bound_col, s->n_col);
            fam = 1, n_slots = 4, q = s->col_pair + 4 * p;
            if (eta[q[0]] == eta[q[1]] && eta[q[1]] != eta[q[2]] && eta[q[2]] == eta[q[3]])
                idx = pick(s->col_entry, s->col_cum, 4, 2 * p + eta[q[2]], acc * s->bound_col);
        } else {
            int64_t p = pair_of(sel - s->thr2, s->bound_bd, s->n_bd);
            fam = 2, n_slots = 1, q = s->bd_slot + p;
            if (acc * s->bound_bd < (eta[*q] ? s->bd_death[p] : s->bd_birth[p]))
                idx = p;
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
    }
    s->t = t;
    s->pos = pos;
    s->tried = tried;
    s->idx = idx;
    return kind;
}
