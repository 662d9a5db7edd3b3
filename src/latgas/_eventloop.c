/* Compiled event loop of latgas.dynamics.SimState (see the dynamics module
 * docstring for the contract).  It mirrors SimState._select and _apply step
 * for step on the same candidate draws and RateTable slot arrays, so the
 * stream is the Python loop's to the bit; build it with -ffp-contract=off and
 * without -ffast-math.  The field order of loop_state matches
 * latgas.eventloop.LoopState. */
#include <stdint.h>

#define BATCH_DONE (-1)
#define CHECK_ABSORBING (-2)
#define CHECK_EVERY 10000000

typedef struct {
    const double *gap, *sel, *acc;          /* candidate batch */
    const int64_t *ex_src, *ex_tgt;         /* RateTable entries */
    const double *ex_pn;
    const int64_t *col_slots;               /* 4 slots per entry */
    const int64_t *bd_slot;
    const double *bd_birth, *bd_death;
    uint8_t *eta;                           /* flat configuration */
    int64_t *kind_counts;                   /* applied events per family */
    int64_t n_cand, n_ex, n_col, n_bd;
    double bound_ex, bound_col, bound_bd, thr1, thr2;
    double t;                               /* clock, in/out */
    int64_t pos, tried, idx;                /* next candidate, rejections, pending entry */
} loop_state;

/* Run candidates from s->pos: apply accepted events with t < stop, and stop
 * at the first accepted one with t >= stop, returning its family (0, 1, 2)
 * with its entry in s->idx, unapplied.  Returns BATCH_DONE when the batch
 * runs out and CHECK_ABSORBING after every CHECK_EVERY consecutive
 * rejections. */
int64_t run_events(loop_state *s, double stop)
{
    uint8_t *eta = s->eta;
    double t = s->t;
    int64_t pos = s->pos, tried = s->tried, kind = BATCH_DONE, idx = 0;

    while (pos < s->n_cand) {
        double sel = s->sel[pos], acc = s->acc[pos];
        t += s->gap[pos++];
        if (sel < s->thr1) {
            idx = (int64_t)(sel / s->bound_ex);
            if (idx > s->n_ex - 1)
                idx = s->n_ex - 1;
            if (eta[s->ex_src[idx]] && !eta[s->ex_tgt[idx]] && acc * s->bound_ex < s->ex_pn[idx])
                kind = 0;
        } else if (sel < s->thr2) {
            idx = (int64_t)((sel - s->thr1) / s->bound_col);
            if (idx > s->n_col - 1)
                idx = s->n_col - 1;
            const int64_t *q = s->col_slots + 4 * idx;
            if (eta[q[0]] && eta[q[1]] && !eta[q[2]] && !eta[q[3]])
                kind = 1;
        } else {
            idx = (int64_t)((sel - s->thr2) / s->bound_bd);
            if (idx > s->n_bd - 1)
                idx = s->n_bd - 1;
            double rate = eta[s->bd_slot[idx]] ? s->bd_death[idx] : s->bd_birth[idx];
            if (acc * s->bound_bd < rate)
                kind = 2;
        }
        if (kind == BATCH_DONE) {
            if (++tried % CHECK_EVERY == 0) {
                kind = CHECK_ABSORBING;
                break;
            }
            continue;
        }
        tried = 0;
        if (t >= stop)
            break;
        if (kind == 0) {
            eta[s->ex_src[idx]] = 0;
            eta[s->ex_tgt[idx]] = 1;
        } else if (kind == 1) {
            const int64_t *q = s->col_slots + 4 * idx;
            eta[q[0]] = 0;
            eta[q[1]] = 0;
            eta[q[2]] = 1;
            eta[q[3]] = 1;
        } else {
            eta[s->bd_slot[idx]] ^= 1;
        }
        s->kind_counts[kind]++;
        kind = BATCH_DONE;
    }
    s->t = t;
    s->pos = pos;
    s->tried = tried;
    s->idx = idx;
    return kind;
}
