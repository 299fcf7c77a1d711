/* One root's pruned Dijkstra (Algorithm 1), compiled.  The Python loop in
 * pruned_dijkstra.py stays the reference: the same lazy-deletion heap in
 * (dist, vertex) order, tmp-array pruning query, delta and six counters.
 * It scans the label store's arena (labels.py): vertex v's label is
 * ah[off[v]:off[v] + size[v]] (int32 hub ranks) with ad alongside (float64
 * distances).  It is called through ctypes.PyDLL, which keeps the GIL for
 * the whole search.  The caller validates every array and owns all memory;
 * nothing here allocates. */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef struct { double d; int64_t v; } item;

enum { SETTLED, PRUNED, RELAX, PUSHES, POPS, SCANNED };

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
 * items).  dist and tmp hold n infinities and are left so; touched, out_v
 * and out_d hold n items, heap len(indices) + 1.  Returns the delta's
 * length, with the delta in out_v/out_d and the counters in cnt[0..5]; or
 * -1 for a bad label, naming it as cnt[0] = vertex, cnt[1] = position in
 * L(vertex) of a hub rank outside [0, n), or -1 for a run outside the
 * arena. */
int64_t pd_run(int64_t n, const int64_t *off, const int64_t *size,
               const int32_t *ah, const double *ad, int64_t na,
               const int64_t *indptr, const int32_t *indices,
               const double *weights, int64_t root, int64_t root_rank,
               double *dist, double *tmp, int64_t *touched, item *heap,
               int64_t *out_v, double *out_d, int64_t *cnt)
{
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
