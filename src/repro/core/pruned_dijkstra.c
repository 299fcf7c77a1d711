/* One root's pruned Dijkstra (Algorithm 1), compiled.  The Python loop in
 * pruned_dijkstra.py stays the reference: the same lazy-deletion heap in
 * (dist, vertex) order, tmp-array pruning query, delta and six counters.
 * It reads the label store's live per-vertex Python lists, so it is called
 * through ctypes.PyDLL and holds the GIL for the whole search.  The caller
 * validates every array and owns all memory; nothing here allocates. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

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

/* Entry i of L(v) into (*h, *d).  Returns 0, or -1 when the hub rank is
 * not an integer in [0, n) or the distance is not a number. */
static int entry(PyObject *hl, PyObject *dl, Py_ssize_t i, int64_t n,
                 int64_t *h, double *d)
{
    PyObject *o = PyList_GET_ITEM(dl, i);
    if ((*h = PyLong_AsLongLong(PyList_GET_ITEM(hl, i))) == -1 && PyErr_Occurred())
        goto err;
    *d = PyFloat_CheckExact(o) ? PyFloat_AS_DOUBLE(o) : PyFloat_AsDouble(o);
    if (*d == -1.0 && PyErr_Occurred())
        goto err;
    return *h >= 0 && *h < n ? 0 : -1;
err:
    PyErr_Clear();
    return -1;
}

/* Pruned search from root.  hubs and dists are the store's outer lists
 * (at least n long); dist and tmp hold n infinities and are left so;
 * touched, out_v and out_d hold n items, heap len(indices) + 1.
 * Returns the delta's length, with the delta in out_v/out_d and the
 * counters in cnt[0..5]; or -1 for a bad entry, naming it as
 * cnt[0] = vertex, cnt[1] = position in L(vertex) (-1: not lists). */
int64_t pd_run(PyObject *hubs, PyObject *dists, int64_t n,
               const int64_t *indptr, const int32_t *indices,
               const double *weights, int64_t root, int64_t root_rank,
               double *dist, double *tmp, int64_t *touched, item *heap,
               int64_t *out_v, double *out_d, int64_t *cnt)
{
    PyObject *hl = PyList_GET_ITEM(hubs, root), *dl = PyList_GET_ITEM(dists, root);
    PyObject *root_hubs = hl;
    Py_ssize_t loaded = 0, i = -1, m;
    int64_t len = 0, nt = 0, k = 0, u = root, h, e;
    double d, x;
    memset(cnt, 0, 6 * sizeof *cnt);
    if (!PyList_Check(hl) || !PyList_Check(dl))
        goto bad;
    /* Root side of the pruning query: tmp[hub] = d(hub, root). */
    m = Py_MIN(PyList_GET_SIZE(hl), PyList_GET_SIZE(dl));
    for (i = 0; i < m; i++, loaded++) {
        if (entry(hl, dl, i, n, &h, &x))
            goto bad;
        if (x < tmp[h])
            tmp[h] = x;
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
        hl = PyList_GET_ITEM(hubs, u);
        dl = PyList_GET_ITEM(dists, u);
        i = -1;
        if (!PyList_Check(hl) || !PyList_Check(dl))
            goto bad;
        /* The lock-free writer appends the distance first, so dists may
         * run one entry ahead: scan the common prefix, as zip does.  The
         * first entry with tmp[h] + x <= d decides QUERY(root, u) <= d,
         * so the scan stops there; the counter still counts len(hubs). */
        m = Py_MIN(PyList_GET_SIZE(hl), PyList_GET_SIZE(dl));
        for (i = 0; i < m; i++) {
            if (entry(hl, dl, i, n, &h, &x))
                goto bad;
            if (tmp[h] + x <= d)
                break;
        }
        cnt[SCANNED] += PyList_GET_SIZE(hl);
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
                if (dist[v] == Py_HUGE_VAL)
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
        dist[touched[--nt]] = Py_HUGE_VAL;
    for (i = 0; i < loaded; i++)
        tmp[PyLong_AsLongLong(PyList_GET_ITEM(root_hubs, i))] = Py_HUGE_VAL;
    tmp[root_rank] = Py_HUGE_VAL;
    return k;
}
