/*
 * The run loop, compiled: `axsim_run` is the twin of `_python_loop` in
 * engine.py, step for step, and makes the same trajectories for the same
 * Generator, bit for bit; `axsim_replay` re-applies a logged run.
 * `_ckernel.py` builds, loads and calls them. The one loop runs every model:
 * `voter` picks `culture_step` or `voter_step`, as the state's type does in
 * Python. `run_model` runs the CVM as its F=q=2 lift on a doubled clock.
 *
 * Identity rests on doing exactly what the Python code does:
 *  - draws: uniforms and Exp(1) variates in separate blocks taken from the end,
 *    refilled lazily by numpy's own fill functions (what `rng.random(n)` and
 *    `rng.standard_exponential(n)` call), block sizes doubling 16 -> 4096;
 *  - culture: three uniforms per step (edge, orientation, feature), picked
 *    as int(u*k);
 *  - the same lattice: edge e joins vertices e and e+1, taken mod V on a
 *    cycle (E = V edges; a path has E = V-1). The target v of an event on
 *    edge e has at most one other edge: e-1, with far end v-1, where v == e,
 *    and e+1, with far end v+1, otherwise; both wrap on a cycle, and on a
 *    path the edge exists only inside 0..E-1. The fired edge is bumped first;
 *  - the same swap-remove order in the weight-class lists, and rate S/F in
 *    IEEE double, so this file must be compiled with -ffp-contract=off;
 *  - voter: rate V, then two uniforms per step, the vertex x = int(u*V) and
 *    the source among x's neighbours in `Topology.neighbors` order, x-1
 *    before x+1 (mod V on a cycle; a path end has one neighbour).
 *
 * With `urn_bitgen` set, the culture step also steps the coupled urn after
 * every event, as `couple` in engine.py does: the urn's own generator
 * picks a nonempty inner box with numpy's bounded-integer fill (what
 * `rng.integers(k)` calls, Lemire's method, unmasked), so the urn's stream,
 * final boxes, potentials and violation counts are those of the Python loop.
 *
 * Call `axsim_run` until it returns AXSIM_DONE. It returns AXSIM_FULL when
 * the event columns are full; the caller grows them, updates the column
 * pointers and `cap`, and calls again. All progress lives in the struct and
 * its work area, one block sized from F and E, which the first call
 * allocates and the last one frees; `axsim_free` frees it after an abandoned
 * run. That allocation is the only step that can fail (AXSIM_NOMEM).
 */
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* From numpy/random/distributions.h, which needs Python.h. */
void random_standard_uniform_fill(bitgen_t *state, intptr_t cnt, double *out);
void random_standard_exponential_fill(bitgen_t *state, intptr_t cnt, double *out);
void random_bounded_uint64_fill(bitgen_t *state, uint64_t off, uint64_t rng, intptr_t cnt,
                                bool use_masked, uint64_t *out);

enum { AXSIM_DONE = 0, AXSIM_FULL = 1, AXSIM_NOMEM = -1 };
enum { FIRST_BLOCK = 16, MAX_BLOCK = 4096 };

/* Field for field the `_Run` ctypes structure in _ckernel.py. */
struct axsim_run {
    bitgen_t *bitgen;
    int64_t F, n_edges;
    int64_t cycle;               /* 1 on a cycle (V = n_edges), 0 on a path (V = n_edges+1) */
    int64_t voter;               /* 1: the voter model (F = 1), 0: the culture model */
    int64_t *state;              /* V x F cultures, updated in place */
    double t_max;                /* INFINITY when unbounded */
    int64_t max_events;
    int64_t until_absorbed;      /* stop once absorbed (a culture run stops there at rate 0) */
    const double *snap_time;     /* sorted */
    int64_t n_snap;
    int64_t *snap_counts;        /* n_snap x (F+1): the census at each snapshot */
    int64_t *counts;             /* F+1: w_0..w_F, live; voter: (disagree, agree) */
    double *ev_time;
    int64_t *ev_target, *ev_source, *ev_feature, *ev_delta;
    int64_t cap;                 /* room in each event column */
    int64_t n_events;
    int64_t n_snap_done;
    double t;
    int64_t total;               /* S = sum_j j*n_j over the classes 1..F-1 */
    void *work;
    bitgen_t *urn_bitgen;        /* the coupled urn's generator, or NULL: no urn */
    int64_t *urn_boxes;          /* F+1: B_0..B_F, live */
    int64_t urn_b0_viol;         /* events after which b_0 > w_0 */
    int64_t urn_pot_viol;        /* events after which b_0 > 0 and beta < eps */
    int64_t urn_beta, urn_W;     /* beta = sum_j (F-j)*B_j and W = sum_j j*w_j over 1..F */
};

struct draws {
    double buf[MAX_BLOCK];
    int64_t left, next;
};

struct work {
    int64_t *weight, *pos, *disagree, *len;
    int64_t *items;  /* class j's edges: items[(j-1)*E + i] for i < len[j] */
    struct draws u, e;
    int64_t mem[];   /* what the pointers above point into */
};

static double draw(bitgen_t *bitgen, struct draws *d, int uniform)
{
    if (d->left == 0) {
        if (uniform)
            random_standard_uniform_fill(bitgen, d->next, d->buf);
        else
            random_standard_exponential_fill(bitgen, d->next, d->buf);
        d->left = d->next;
        d->next = d->next < MAX_BLOCK / 2 ? 2 * d->next : MAX_BLOCK;
    }
    return d->buf[--d->left];
}

void axsim_free(struct axsim_run *r)
{
    free(r->work);
    r->work = NULL;
}

/* Edge e from class old to class c (0: absent), as `_Buckets.move` in engine.py. */
static void move(struct axsim_run *r, struct work *w, int64_t e, int64_t old, int64_t c)
{
    if (c == old)
        return;
    if (old) {
        int64_t *items = w->items + (old - 1) * r->n_edges;
        int64_t last = items[--w->len[old]];
        if (last != e) {
            w->pos[last] = w->pos[e];
            items[w->pos[e]] = last;
        }
    }
    if (c) {
        w->pos[e] = w->len[c];
        w->items[(c - 1) * r->n_edges + w->len[c]++] = e;
    }
    r->total += c - old;
}

/* Weight of edge e by d, as `_Buckets.bump` in engine.py. */
static void bump(struct axsim_run *r, struct work *w, int64_t e, int64_t d)
{
    const int64_t old = w->weight[e];
    r->counts[old] -= 1;
    const int64_t wt = w->weight[e] = old + d;
    r->counts[wt] += 1;
    move(r, w, e, old < r->F ? old : 0, wt < r->F ? wt : 0);
}

static int start(struct axsim_run *r)
{
    const int64_t F = r->F, E = r->n_edges, V = r->cycle ? E : E + 1;
    /* One block: E weights, E positions, F features, F class lengths and
     * F-1 class lists of E each, since an edge is in one class at a time.
     * Not calloc: zeroing the 64 KB of draw buffers costs about as much as
     * a short run's events, and a list's pages are touched only as it
     * fills. Every field the loop reads is set below. */
    struct work *w = malloc(sizeof *w + (size_t)((F + 1) * E + 2 * F) * sizeof(int64_t));
    if (w == NULL)
        return -1;
    r->work = w;
    w->weight = w->mem;
    w->pos = w->weight + E;
    w->disagree = w->pos + E;
    w->len = w->disagree + F;
    w->items = w->len + F;
    memset(w->len, 0, (size_t)F * sizeof(int64_t));
    memset(r->counts, 0, (size_t)(F + 1) * sizeof(int64_t));
    r->total = 0;
    for (int64_t e = 0; e < E; e++) {
        const int64_t *sa = r->state + e * F, *sb = r->state + (e + 1) % V * F;
        int64_t wt = 0;
        for (int64_t i = 0; i < F; i++)
            wt += sa[i] == sb[i];
        w->weight[e] = wt;
        r->counts[wt] += 1;
        move(r, w, e, 0, wt < F ? wt : 0);
    }
    w->u.left = w->e.left = 0;
    w->u.next = w->e.next = FIRST_BLOCK;
    if (r->urn_bitgen != NULL) {  /* as `urn_init`: B_j = w_j */
        memcpy(r->urn_boxes, r->counts, (size_t)(F + 1) * sizeof(int64_t));
        r->urn_beta = r->urn_W = 0;
        for (int64_t j = 1; j <= F; j++) {
            r->urn_W += j * r->counts[j];
            r->urn_beta += (F - j) * r->counts[j];
        }
    }
    return 0;
}

/* The coupled urn after an event that changed W by delta, as `couple` in
 * engine.py: on delta 2 a ball moves up from a uniformly chosen nonempty
 * inner box, then box 0 gives a ball to box 1 if it has one (`urn_move` in
 * urn.py), and the two violations are counted. */
static void couple(struct axsim_run *r, int64_t delta)
{
    const int64_t F = r->F;
    int64_t *B = r->urn_boxes;
    r->urn_W += delta;
    if (delta == 2) {
        uint64_t k = 0, pick;
        for (int64_t j = 1; j < F; j++)
            k += B[j] > 0;
        if (k) {
            /* rng.integers(k); k == 1 draws nothing, as in numpy. */
            random_bounded_uint64_fill(r->urn_bitgen, 0, k - 1, 1, false, &pick);
            int64_t j = 1;
            while (B[j] == 0 || pick-- > 0)
                j += 1;
            B[j] -= 1;
            B[j + 1] += 1;
            r->urn_beta -= 1;
            if (B[0] > 0) {
                B[0] -= 1;
                B[1] += 1;
                r->urn_beta += F - 1;
            }
        }
    }
    const int64_t w0 = r->counts[0];
    r->urn_b0_viol += B[0] > w0;
    r->urn_pot_viol += B[0] > 0 && r->urn_beta < F * (r->n_edges - w0) - r->urn_W;
}

/* One culture event, as `culture_step` in engine.py: class j with
 * probability j*n_j/S, then uniform within the class. */
static void culture_step(struct axsim_run *r, struct work *w)
{
    const int64_t F = r->F, E = r->n_edges, V = r->cycle ? E : E + 1, S = r->total;
    int64_t *state = r->state;
    int64_t x = (int64_t)(draw(r->bitgen, &w->u, 1) * (double)S);
    int64_t j = 1;
    while (x >= j * w->len[j]) {
        x -= j * w->len[j];
        j += 1;
    }
    const int64_t e = w->items[(j - 1) * E + x / j];
    int64_t u = e, v = e + 1 < V ? e + 1 : 0;
    if (!(draw(r->bitgen, &w->u, 1) < 0.5)) {
        u = v;
        v = e;
    }
    int64_t *su = state + u * F, *sv = state + v * F;
    int64_t k = 0;
    for (int64_t i = 0; i < F; i++)
        if (su[i] != sv[i])
            w->disagree[k++] = i;
    const int64_t feat = w->disagree[(int64_t)(draw(r->bitgen, &w->u, 1) * (double)k)];
    const int64_t old = sv[feat], new = su[feat];
    int64_t delta = 1;
    bump(r, w, e, 1);
    int64_t e2 = v == e ? e - 1 : e + 1, z = v == e ? v - 1 : v + 1;
    if (r->cycle) {
        e2 = (e2 + E) % E;
        z = (z + V) % V;
    }
    if (0 <= e2 && e2 < E) {
        const int64_t zf = state[z * F + feat];
        const int64_t dd = (zf == new) - (zf == old);
        if (dd)
            bump(r, w, e2, dd);
        delta += dd;
    }
    sv[feat] = new;

    const int64_t n = r->n_events++;
    r->ev_time[n] = r->t;
    r->ev_target[n] = v;
    r->ev_source[n] = u;
    r->ev_feature[n] = feat;
    r->ev_delta[n] = delta;
    if (r->urn_bitgen != NULL)
        couple(r, delta);
}

/* One voter event, as `voter_step` in engine.py: F = 1, and
 * `start` gives counts (disagree, agree); the step reads only the draw
 * blocks of the work area. Vertex x copies a uniform neighbour y, logged
 * with feature -1 and delta 1 where x's opinion flipped, else 0. */
static void voter_step(struct axsim_run *r, struct work *w)
{
    const int64_t V = r->cycle ? r->n_edges : r->n_edges + 1;
    int64_t *op = r->state, *counts = r->counts;
    const int64_t x = (int64_t)(draw(r->bitgen, &w->u, 1) * (double)V);
    int64_t nbr[2], k = 0;
    if (r->cycle || x > 0)
        nbr[k++] = x > 0 ? x - 1 : V - 1;
    if (r->cycle || x < V - 1)
        nbr[k++] = x < V - 1 ? x + 1 : 0;
    const int64_t y = nbr[(int64_t)(draw(r->bitgen, &w->u, 1) * (double)k)];
    const int64_t flipped = op[x] != op[y];
    if (flipped) {
        for (int64_t i = 0; i < k; i++) {
            const int64_t d = op[nbr[i]] == op[y] ? 1 : -1;
            counts[1] += d;
            counts[0] -= d;
        }
        op[x] = op[y];
    }

    const int64_t n = r->n_events++;
    r->ev_time[n] = r->t;
    r->ev_target[n] = x;
    r->ev_source[n] = y;
    r->ev_feature[n] = -1;
    r->ev_delta[n] = flipped;
}

/* The run loop, as `_python_loop` in engine.py. */
int64_t axsim_run(struct axsim_run *r)
{
    if (r->work == NULL && start(r) != 0)
        return AXSIM_NOMEM;
    struct work *w = r->work;
    const int64_t F = r->F, V = r->cycle ? r->n_edges : r->n_edges + 1;

    for (;;) {
        if (r->n_events == r->cap)
            return AXSIM_FULL;
        const double rate = r->voter ? (double)V : (double)r->total / (double)F;
        const bool absorbed = r->voter ? r->counts[0] == 0 : r->total == 0;
        if (rate == 0 || r->n_events >= r->max_events || (r->until_absorbed && absorbed))
            break;
        double t_next = r->t + draw(r->bitgen, &w->e, 0) / rate;
        if (t_next > r->t_max) {
            r->t = r->t_max;
            break;
        }
        r->t = t_next;
        /* The census at every pending snapshot time <= t (left limits); the
         * caller takes those after the last event from the final counts. */
        while (r->n_snap_done < r->n_snap && r->snap_time[r->n_snap_done] <= r->t) {
            memcpy(r->snap_counts + r->n_snap_done * (F + 1), r->counts,
                   (size_t)(F + 1) * sizeof(int64_t));
            r->n_snap_done += 1;
        }
        if (r->voter)
            voter_step(r, w);
        else
            culture_step(r, w);
    }
    axsim_free(r);
    return AXSIM_DONE;
}

/* Re-apply n logged events to a V x F state in place, as `logio.replay`:
 * vertex target[k] copies feature i = feature[k] of source[k], or i = 0 where
 * `feature` is NULL (opinions, F = 1). The caller has checked that every
 * vertex and feature lies inside the state. */
void axsim_replay(int64_t *state, int64_t F, int64_t n, const int64_t *target,
                  const int64_t *source, const int64_t *feature)
{
    for (int64_t k = 0; k < n; k++) {
        const int64_t i = feature != NULL ? feature[k] : 0;
        state[target[k] * F + i] = state[source[k] * F + i];
    }
}
