/* One root's pruned Dijkstra (Algorithm 1), compiled, the label store's
 * in-place append, and the finalized store's distance query.  The
 * Python loop in pruned_dijkstra.py stays the reference: the same
 * lazy-deletion heap in (dist, vertex) order, tmp-array pruning query,
 * delta and six counters.  The search and the append work on the label
 * store's arena (labels.py): vertex v's label is
 * ah[off[v]:off[v] + size[v]] (int32 hub ranks) with ad alongside
 * (float64 distances), in room for cap[v] entries.  The query reads the
 * finalized CSR instead, with query.py's merge join as its reference.
 * All are called through ctypes.PyDLL, which keeps the GIL.  Each takes
 * one context array of int64 slots, pointers and lengths, that the
 * caller fills from arrays it validated and owns (native.py names the
 * slots); nothing here allocates. */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef struct { double d; int64_t v; } item;

enum { SETTLED, PRUNED, RELAX, PUSHES, POPS, SCANNED };

/* The search context (native.SEARCH_SLOTS). */
enum { PD_N, PD_OFF, PD_SIZE, PD_AH, PD_AD, PD_NA, PD_INDPTR, PD_INDICES,
       PD_WEIGHTS, PD_DIST, PD_TMP, PD_TOUCHED, PD_HEAP, PD_OUT_V, PD_OUT_D,
       PD_CNT };

/* The store context (native.STORE_SLOTS); END is read and written. */
enum { LS_N, LS_RUN_MIN, LS_OFF, LS_SIZE, LS_AH, LS_AD, LS_CAP, LS_NA,
       LS_END };

/* The query context (native.QUERY_SLOTS), and pq_join's error codes. */
enum { PQ_N, PQ_INDPTR, PQ_HUBS, PQ_DISTS, PQ_NE };
enum { PQ_VERTEX = -2, PQ_RUN = -3 };

#define SLOT(cx, type, i) ((type *)(intptr_t)(cx)[i])

static int before(item a, item b) { return a.d < b.d || (a.d == b.d && a.v < b.v); }

static void push(item *heap, int64_t *len, item x)
{
    int64_t i = (*len)++;
    while (i > 0 && before(x, heap[(i - 1) / 2])) {
        heap[i] = heap[(i - 1) / 2];
        i = (i - 1) / 2;
    }
    heap[i] = x;
}

static item pop(item *heap, int64_t *len)
{
    item top = heap[0], last = heap[--*len];
    int64_t i = 0, c;
    while ((c = 2 * i + 1) < *len) {
        if (c + 1 < *len && before(heap[c + 1], heap[c]))
            c++;
        if (!before(heap[c], last))
            break;
        heap[i] = heap[c];
        i = c;
    }
    heap[i] = last;
    return top;
}

/* The published run of L(v) as [*o, *o + *m).  A writer stores entries,
 * then off, then size, so size is read first.  Returns -1 when the run
 * does not lie inside the arena's na slots. */
static int run(const int64_t *off, const int64_t *size, int64_t na, int64_t v,
               int64_t *o, int64_t *m)
{
    *m = __atomic_load_n(&size[v], __ATOMIC_ACQUIRE);
    *o = __atomic_load_n(&off[v], __ATOMIC_ACQUIRE);
    return *o >= 0 && *m >= 0 && *m <= na - *o ? 0 : -1;
}

/* Pruned search from root over the arena (off, size: n items; ah, ad: na
 * items).  dist and tmp hold n infinities and are left so; touched holds
 * n items, heap len(indices) + 1, and out_v/out_d n items from index at.
 * Returns the delta's length, with the delta in out_v/out_d from at and
 * the counters in cnt[0..5]; or -1 for a bad label, naming it as cnt[0] =
 * vertex, cnt[1] = position in L(vertex) of a hub rank outside [0, n), or
 * -1 for a run outside the arena. */
int64_t pd_run(const int64_t *cx, int64_t root, int64_t root_rank, int64_t at)
{
    const int64_t n = cx[PD_N], na = cx[PD_NA];
    const int64_t *off = SLOT(cx, const int64_t, PD_OFF);
    const int64_t *size = SLOT(cx, const int64_t, PD_SIZE);
    const int32_t *ah = SLOT(cx, const int32_t, PD_AH);
    const double *ad = SLOT(cx, const double, PD_AD);
    const int64_t *indptr = SLOT(cx, const int64_t, PD_INDPTR);
    const int32_t *indices = SLOT(cx, const int32_t, PD_INDICES);
    const double *weights = SLOT(cx, const double, PD_WEIGHTS);
    double *dist = SLOT(cx, double, PD_DIST), *tmp = SLOT(cx, double, PD_TMP);
    int64_t *touched = SLOT(cx, int64_t, PD_TOUCHED);
    item *heap = SLOT(cx, item, PD_HEAP);
    int64_t *out_v = SLOT(cx, int64_t, PD_OUT_V) + at;
    double *out_d = SLOT(cx, double, PD_OUT_D) + at;
    int64_t *cnt = SLOT(cx, int64_t, PD_CNT);
    int64_t loaded = 0, i = -1, o, m, root_off = 0;
    int64_t len = 0, nt = 0, k = 0, u = root, h, e;
    double d;
    memset(cnt, 0, 6 * sizeof *cnt);
    if (run(off, size, na, root, &o, &m))
        goto bad;
    /* Root side of the pruning query: tmp[hub] = d(hub, root). */
    root_off = o;
    for (i = 0; i < m; i++, loaded++) {
        h = ah[o + i];
        if (h < 0 || h >= n)
            goto bad;
        if (ad[o + i] < tmp[h])
            tmp[h] = ad[o + i];
    }
    if (0.0 < tmp[root_rank])
        tmp[root_rank] = 0.0;
    dist[root] = 0.0;
    touched[nt++] = root;
    push(heap, &len, (item){0.0, root});
    while (len) {
        item top = pop(heap, &len);
        cnt[POPS]++;
        u = top.v;
        d = top.d;
        if (d > dist[u])
            continue; /* stale lazy-deletion entry */
        cnt[SETTLED]++;
        i = -1;
        if (run(off, size, na, u, &o, &m))
            goto bad;
        /* The first entry with tmp[h] + x <= d decides QUERY(root, u) <= d,
         * so the scan stops there; the counter still counts the run. */
        for (i = 0; i < m; i++) {
            h = ah[o + i];
            if (h < 0 || h >= n)
                goto bad;
            if (tmp[h] + ad[o + i] <= d)
                break;
        }
        cnt[SCANNED] += m;
        if (i < m) {
            cnt[PRUNED]++;
            continue;
        }
        out_v[k] = u;
        out_d[k++] = d;
        for (e = indptr[u]; e < indptr[u + 1]; e++, cnt[RELAX]++) {
            int64_t v = indices[e];
            double nd = d + weights[e];
            if (nd < dist[v]) {
                if (dist[v] == HUGE_VAL)
                    touched[nt++] = v;
                dist[v] = nd;
                push(heap, &len, (item){nd, v});
                cnt[PUSHES]++;
            }
        }
    }
    goto reset;
bad:
    cnt[0] = u;
    cnt[1] = i;
    k = -1;
reset:
    while (nt)
        dist[touched[--nt]] = HUGE_VAL;
    for (i = 0; i < loaded; i++)
        tmp[ah[root_off + i]] = HUGE_VAL;
    tmp[root_rank] = HUGE_VAL;
    return k;
}

/* Appends (hub, dists[j]) to L(verts[j]) for j in [i, k), in order, into
 * the store's arena (off, size, cap: n items; ah, ad: na items; entries
 * from end on unowned).  A full run moves to end with capacity
 * max(2 cap, size + 1, run_min), as LabelStore._reserve moves it.  Each
 * append publishes as every writer does: entries, then off, then size,
 * with release stores.  Returns k when all are in; j when entry j's run
 * is full and the arena has no room to move it (entries before j are in,
 * none from j on); or -1, writing nothing, when hub is not an int32 or a
 * vertex lies outside [0, n). */
int64_t ls_append(int64_t *cx, int64_t hub, const int64_t *verts,
                  const double *dists, int64_t i, int64_t k)
{
    const int64_t n = cx[LS_N], na = cx[LS_NA];
    int64_t *off = SLOT(cx, int64_t, LS_OFF), *size = SLOT(cx, int64_t, LS_SIZE);
    int64_t *cap = SLOT(cx, int64_t, LS_CAP);
    int32_t *ah = SLOT(cx, int32_t, LS_AH);
    double *ad = SLOT(cx, double, LS_AD);
    int64_t j;
    if (hub < INT32_MIN || hub > INT32_MAX)
        return -1;
    for (j = i; j < k; j++)
        if (verts[j] < 0 || verts[j] >= n)
            return -1;
    for (; i < k; i++) {
        int64_t v = verts[i], m = size[v], o = off[v];
        if (m == cap[v]) {
            int64_t end = cx[LS_END], c = 2 * cap[v];
            if (c < m + 1)
                c = m + 1;
            if (c < cx[LS_RUN_MIN])
                c = cx[LS_RUN_MIN];
            if (c > na - end)
                return i;
            memcpy(ah + end, ah + o, m * sizeof *ah);
            memcpy(ad + end, ad + o, m * sizeof *ad);
            o = end;
            cap[v] = c;
            cx[LS_END] = end + c;
        }
        ah[o + m] = (int32_t)hub;
        ad[o + m] = dists[i];
        __atomic_store_n(&off[v], o, __ATOMIC_RELEASE);
        __atomic_store_n(&size[v], m + 1, __ATOMIC_RELEASE);
    }
    return k;
}

/* QUERY(s, t): one merge join of L(s) and L(t) over the finalized CSR
 * (indptr: n + 1 items; hubs and dists: ne items; the hubs of each run
 * strictly increasing).  Returns the least float64 sum d(u, s) + d(u, t)
 * over the common hubs u, inf when there is none, and 0 when s == t.
 * When out is not NULL it writes out[0] = the first hub reaching that
 * least sum, or -1, and out[1] = the entries consumed (i + j).  Returns
 * NaN, which no least sum can be, when s or t lies outside [0, n)
 * (out[0] = PQ_VERTEX) or a run lies outside [0, ne] (out[0] = PQ_RUN),
 * with out[1] = that vertex. */
double pq_join(const int64_t *cx, int64_t s, int64_t t, int64_t *out)
{
    const int64_t n = cx[PQ_N], ne = cx[PQ_NE];
    const int64_t *indptr = SLOT(cx, const int64_t, PQ_INDPTR);
    const int64_t *hubs = SLOT(cx, const int64_t, PQ_HUBS);
    const double *dists = SLOT(cx, const double, PQ_DISTS);
    int64_t i = 0, j = 0, i0 = 0, j0 = 0, ei, ej, hub = -1, bad, code;
    double best = HUGE_VAL;
    code = PQ_VERTEX;
    bad = s;
    if (s < 0 || s >= n)
        goto fail;
    bad = t;
    if (t < 0 || t >= n)
        goto fail;
    if (s == t) {
        best = 0.0;
        goto done;
    }
    code = PQ_RUN;
    bad = s;
    i0 = i = indptr[s], ei = indptr[s + 1];
    if (i < 0 || i > ei || ei > ne)
        goto fail;
    bad = t;
    j0 = j = indptr[t], ej = indptr[t + 1];
    if (j < 0 || j > ej || ej > ne)
        goto fail;
    while (i < ei && j < ej) {
        int64_t a = hubs[i], b = hubs[j];
        if (a == b) {
            double sum = dists[i] + dists[j];
            if (sum < best) {
                best = sum;
                hub = a;
            }
            i++, j++;
        } else if (a < b) {
            i++;
        } else {
            j++;
        }
    }
done:
    if (out) {
        out[0] = hub;
        out[1] = (i - i0) + (j - j0);
    }
    return best;
fail:
    if (out) {
        out[0] = code;
        out[1] = bad;
    }
    return NAN;
}

/* pq_join over m (s, t) pairs: pairs holds 2m items, out m.  Returns m,
 * or the index of the first pair pq_join rejects, leaving out from
 * there unwritten. */
int64_t pq_batch(const int64_t *cx, const int64_t *pairs, int64_t m,
                 double *out)
{
    int64_t k;
    for (k = 0; k < m; k++) {
        double d = pq_join(cx, pairs[2 * k], pairs[2 * k + 1], NULL);
        if (d != d)
            return k;
        out[k] = d;
    }
    return m;
}
