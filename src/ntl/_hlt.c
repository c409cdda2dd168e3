/* The HLT pass of Todd-Coxeter coset enumeration of the trivial subgroup
   (Holt, Eick and O'Brien, Handbook of Computational Group Theory, ch. 5),
   with row filling and in-place coincidence processing on a union-find,
   and the row copies that fill the regular representation's table from
   the finished coset table's walk.

   `ntl.coset` compiles this file once and calls it through ctypes:
   `ntl_hlt_run` fills the table and `ntl_hlt_take` compresses it, writing
   the live rows renumbered 0.. into the caller's array, and unmaps every
   buffer.  Definitions take the first undefined entry in row-major
   order, relators are scanned in the order given, a merge keeps the
   smaller index and every coincidence drains one queue, so identical
   inputs give identical tables and counts.

   Between cosets the pass drops dead rows (Holt, Eick and O'Brien's
   compaction): the live rows are renumbered 0.. in index order and moved
   down.  Every choice above reads only the order of coset indices, which
   that renumbering keeps, so it changes no definition, merge or count,
   and the table holds about the live cosets rather than every coset the
   pass ever defined.

   All state lives in `struct hlt`, which the caller owns.  The table, the
   union-find and the coincidence queue share one anonymous mapping, so a
   finished run hands its memory straight back to the system.  Table
   entries are int32 (-1 is undefined); index arithmetic is int64.

   `ntl_regular_fill` writes the group's int16 multiplication table into
   an array the caller allocated, copying rows along the tree edges of a
   walk of the coset table by the left multiplications the caller spread
   along that walk; it allocates nothing. */

#define _GNU_SOURCE
#include <stdint.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>

enum { DONE, COSETS_EXHAUSTED, TIME_EXHAUSTED, OUT_OF_MEMORY };

/* The pass compacts once dead rows outnumber live ones in a table of at
   least this many rows.  On the nu presentations that about halves the
   most rows held (nu(D6): 100 452 to 54 399) for a few percent of the
   pass's time; compacting once a third or a fifth of the rows are dead
   held 25 % and 37 % fewer rows still, for 7 % and 42 % more time. */
enum { COMPACT_FLOOR = 4096 };

struct hlt {
    int64_t width, max_cosets;
    double deadline;    /* CLOCK_MONOTONIC seconds; +inf for none */
    int64_t rows, cap;  /* rows held, rows mapped */
    int64_t defined, alive, coincidences, queued;
    int64_t peak;       /* the most rows held at once, for the tests */
    int32_t *tab, *uf, *queue;  /* cap * width, cap, cap entries */
};

#define T(c, x) h->tab[(int64_t)(c) * h->width + (x)]

static size_t map_bytes(const struct hlt *h, int64_t cap)
{
    return (size_t)cap * (size_t)(h->width + 2) * sizeof(int32_t);
}

/* Map room for `cap` rows, keeping the defined part of the union-find. */
static int remap(struct hlt *h, int64_t cap)
{
    size_t bytes = map_bytes(h, cap);
    void *base;
    if (h->tab == NULL) {
        base = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    } else {
#ifdef MREMAP_MAYMOVE
        base = mremap(h->tab, map_bytes(h, h->cap), bytes, MREMAP_MAYMOVE);
#else
        base = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (base != MAP_FAILED) {
            memcpy(base, h->tab, map_bytes(h, h->cap));
            munmap(h->tab, map_bytes(h, h->cap));
        }
#endif
    }
    if (base == MAP_FAILED)
        return 0;
    int32_t *old_uf = (int32_t *)base + h->cap * h->width;
    h->tab = base;
    h->uf = h->tab + cap * h->width;
    memmove(h->uf, old_uf, (size_t)h->rows * sizeof(int32_t));
    h->queue = h->uf + cap;
    h->cap = cap;
    return 1;
}

static int past_deadline(const struct hlt *h)
{
    struct timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    return (double)now.tv_sec + (double)now.tv_nsec * 1e-9 > h->deadline;
}

static int64_t find(struct hlt *h, int64_t c)
{
    int32_t *uf = h->uf;
    int64_t r = c;
    while (uf[r] != r)
        r = uf[r];
    while (uf[c] != r) {
        int64_t next = uf[c];
        uf[c] = (int32_t)r;
        c = next;
    }
    return r;
}

/* A new coset alpha.x; the budget is tested before the table grows. */
static int define(struct hlt *h, int64_t alpha, int64_t x)
{
    h->defined++;
    h->alive++;
    if (h->defined > h->max_cosets)
        return COSETS_EXHAUSTED;
    if (h->defined % 1024 == 0 && past_deadline(h))
        return TIME_EXHAUSTED;
    if (h->rows == h->cap
        && (h->cap == INT32_MAX
            || !remap(h, h->cap > INT32_MAX / 2 ? INT32_MAX : 2 * h->cap)))
        return OUT_OF_MEMORY;
    int64_t beta = h->rows++;
    if (h->rows > h->peak)
        h->peak = h->rows;
    memset(&T(beta, 0), 0xff, (size_t)h->width * sizeof(int32_t));
    T(beta, x ^ 1) = (int32_t)alpha;
    h->uf[beta] = (int32_t)beta;
    T(alpha, x) = (int32_t)beta;
    return DONE;
}

static void merge(struct hlt *h, int64_t a, int64_t b)
{
    int64_t fa = find(h, a), fb = find(h, b);
    if (fa == fb)
        return;
    if (fa > fb) {
        int64_t t = fa;
        fa = fb;
        fb = t;
    }
    h->uf[fb] = (int32_t)fa;
    h->queue[h->queued++] = (int32_t)fb;
    h->alive--;
    h->coincidences++;
}

static void coincidence(struct hlt *h, int64_t a, int64_t b)
{
    h->queued = 0;
    merge(h, a, b);
    for (int64_t qi = 0; qi < h->queued; qi++) {
        int64_t gamma = h->queue[qi];
        for (int64_t x = 0; x < h->width; x++) {
            int64_t delta = T(gamma, x);
            if (delta < 0)
                continue;
            T(delta, x ^ 1) = -1;
            int64_t mu = find(h, gamma), nu = find(h, delta);
            if (T(mu, x) >= 0) {
                merge(h, nu, T(mu, x));
            } else if (T(nu, x ^ 1) >= 0) {
                merge(h, mu, T(nu, x ^ 1));
            } else {
                T(mu, x) = (int32_t)nu;
                T(nu, x ^ 1) = (int32_t)mu;
            }
        }
    }
}

static int scan_and_fill(struct hlt *h, int64_t alpha, const int32_t *w,
                         int64_t len)
{
    int64_t i = 0, j = len - 1, f = alpha, b = alpha;
    for (;;) {
        for (; i <= j && T(f, w[i]) >= 0; i++)
            f = T(f, w[i]);
        if (i > j) {
            if (f != b)
                coincidence(h, f, b);
            return DONE;
        }
        for (; j >= i && T(b, w[j] ^ 1) >= 0; j--)
            b = T(b, w[j] ^ 1);
        if (j < i) {
            coincidence(h, f, b);
            return DONE;
        }
        if (j == i) {
            T(f, w[i]) = (int32_t)b;
            T(b, w[i] ^ 1) = (int32_t)f;
            return DONE;
        }
        int status = define(h, f, w[i]);
        if (status)
            return status;
    }
}

/* Number the live rows 0.. in index order, in the coincidence queue, and
   a dead row -1; returns the number of live rows. */
static int64_t renumber(struct hlt *h)
{
    int64_t n = 0;
    for (int64_t c = 0; c < h->rows; c++)
        h->queue[c] = h->uf[c] == c ? (int32_t)n++ : -1;
    return n;
}

/* Row c with every entry renumbered, written to `out`, which may be row c
   itself; an entry that is undefined or names a dead coset becomes -1.
   Branch-free, since a row half filled mispredicts a branch: an undefined
   entry reads renum[0] and is masked back to -1. */
static void renumber_row(const struct hlt *h, int64_t c, int32_t *out)
{
    const int32_t *row = &T(c, 0), *renum = h->queue;
    for (int64_t x = 0; x < h->width; x++) {
        int32_t e = row[x], undefined = -(e < 0);
        out[x] = renum[e & ~undefined] | undefined;
    }
}

/* Drop the dead rows once they outnumber the live ones in a table of at
   least COMPACT_FLOOR rows, the live rows renumbered 0.. in index order
   and moved down in place; returns live coset alpha's new number.  Only
   between cosets, where no coincidence is pending, no live row names a
   dead coset and no coset number is held outside the table but alpha's;
   never inside `define`, whose caller holds coset numbers in locals. */
static int64_t compact(struct hlt *h, int64_t alpha)
{
    if (h->rows < COMPACT_FLOOR || h->rows - h->alive <= h->alive)
        return alpha;
    int64_t n = renumber(h);
    for (int64_t c = 0; c < h->rows; c++)
        if (h->uf[c] == c)
            renumber_row(h, c, &T(h->queue[c], 0));
    alpha = h->queue[alpha];
    for (int64_t c = 0; c < n; c++)
        h->uf[c] = (int32_t)c;
    h->rows = n;
    return alpha;
}

/* Relator k is letters[ends[k-1]:ends[k]] (ends[-1] = 0), in column
   letters: 2g for generator g, 2g+1 for its inverse.  Fills the table from
   the identity coset; returns DONE or why the run stopped. */
int32_t ntl_hlt_run(struct hlt *h, const int32_t *letters,
                    const int64_t *ends, int64_t nrel)
{
    h->rows = h->cap = h->queued = h->coincidences = 0;
    h->tab = h->uf = h->queue = NULL;
    /* one page to start with: most tables are small */
    int64_t row = (int64_t)map_bytes(h, 1);
    if (!remap(h, row < 4096 ? 4096 / row : 1))
        return OUT_OF_MEMORY;
    memset(h->tab, 0xff, (size_t)h->width * sizeof(int32_t));
    h->uf[0] = 0;
    h->rows = h->peak = h->defined = h->alive = 1;
    int status = DONE;
    for (int64_t alpha = 0; alpha < h->rows; alpha++) {
        if (h->uf[alpha] != alpha)
            continue;
        alpha = compact(h, alpha);
        for (int64_t k = 0, start = 0; k < nrel; start = ends[k++]) {
            if ((status = scan_and_fill(h, alpha, letters + start,
                                        ends[k] - start)))
                return status;
            if (h->uf[alpha] != alpha)
                break;
        }
        if (h->uf[alpha] != alpha)
            continue;
        for (int64_t x = 0; x < h->width; x++)
            if (T(alpha, x) < 0 && (status = define(h, alpha, x)))
                return status;
    }
    /* a short run may never reach a 1024th coset */
    return past_deadline(h) ? TIME_EXHAUSTED : DONE;
}

/* Write the first `room` live rows into `rows`, renumbered 0.. in index
   order, and unmap every buffer; returns the number of live rows.  The
   coincidence queue, which a finished pass no longer reads, holds the new
   numbers.  An entry that is undefined or names a dead coset is written
   as -1, for the caller's range check to refuse. */
int64_t ntl_hlt_take(struct hlt *h, int32_t *rows, int64_t room)
{
    int64_t n = renumber(h);
    for (int64_t c = 0, k = 0; k < room && c < h->rows; c++)
        if (h->uf[c] == c)
            renumber_row(h, c, rows + k++ * h->width);
    munmap(h->tab, map_bytes(h, h->cap));
    h->tab = h->uf = h->queue = NULL;
    return n;
}

/* The regular representation's table, of the group whose coset table of
   the trivial subgroup has n rows, along the edges
   (vertex[e], parent[e], step[e]) of a spanning tree of the walk over its
   generator columns from coset 0, in discovery order: vertex[e] is
   parent[e] times generator step[e].  `left[g * n + d]` is g.d, the left
   multiplication by each generator, which the caller spread along the
   same tree.  Writes table[a * n + x] = a.x: row 0 is 0..n-1, and
   a = c.h multiplies as a.x = c.(h.x), so row a is row c taken at
   left[h * n + x]. */
void ntl_regular_fill(int64_t n, const int64_t *vertex,
                      const int64_t *parent, const int64_t *step,
                      const int32_t *left, int16_t *table)
{
    for (int64_t x = 0; x < n; x++)
        table[x] = (int16_t)x;
    for (int64_t e = 0; e < n - 1; e++) {
        const int16_t *from = table + parent[e] * n;
        const int32_t *by = left + step[e] * n;
        int16_t *row = table + vertex[e] * n;
        for (int64_t x = 0; x < n; x++)
            row[x] = from[by[x]];
    }
}
