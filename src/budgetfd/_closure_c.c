/* Compiled closure kernel for hypergraphs with at most 64 vertices and 64
 * edges: the same worklist as budgetfd._closure_py, over fixed uint64_t
 * arrays.  Masks travel as Python ints that must fit in uint64.
 *
 * Build it with a C compiler alone:  python3 setup.py build_ext --inplace
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef struct {
    PyObject_HEAD
    uint64_t tails[64];
    uint64_t heads[64];
    uint64_t tailless;             /* edges whose tail is empty */
    uint64_t vertices;             /* the vertices 0 .. n_vertices - 1 */
    int adj_start[65];             /* CSR adjacency by tail: the edges with */
    unsigned char adj_edges[4096]; /* tail v are adj_edges[adj_start[v] ..
                                      adj_start[v + 1]) */
} Kernel;

/* The closure of closed | fresh under the edges of edge_mask, for closed
 * already closed under them: only edges with a tail among the vertices
 * fresh adds can fire.  Vertices at or above n_vertices have no out-edges. */
static uint64_t
grow(const Kernel *k, uint64_t edge_mask, uint64_t closed, uint64_t fresh)
{
    uint64_t reached = closed | fresh;
    uint64_t pending = fresh & ~closed & k->vertices;
    while (pending) {
        int v = __builtin_ctzll(pending);
        pending &= pending - 1;
        for (int i = k->adj_start[v]; i < k->adj_start[v + 1]; i++) {
            int e = k->adj_edges[i];
            if ((edge_mask >> e & 1) && !(k->tails[e] & ~reached)) {
                uint64_t added = k->heads[e] & ~reached;
                reached |= added;
                pending |= added & k->vertices;
            }
        }
    }
    return reached;
}

/* Convert n Python ints to uint64 masks; -1 with an exception set on a
 * non-int (TypeError) or a value outside uint64 (OverflowError). */
static int
to_masks(PyObject *const *items, Py_ssize_t n, uint64_t *out)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyLong_AsUnsignedLongLong(items[i]);
        if (out[i] == (uint64_t)-1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* The `want` positional masks of a method call, or -1 with an exception. */
static int
read_masks(const char *name, PyObject *const *args, Py_ssize_t nargs,
           Py_ssize_t want, uint64_t *out)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                     name, want, nargs);
        return -1;
    }
    return to_masks(args, want, out);
}

static PyObject *
Kernel_closure(Kernel *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t m[2];
    if (read_masks("closure", args, nargs, 2, m) < 0)
        return NULL;
    /* The empty set is closed under every edge with a tail, so firing the
     * tail-less edges first leaves exactly the worklist's job. */
    uint64_t start = m[1];
    for (uint64_t rest = m[0] & self->tailless; rest; rest &= rest - 1)
        start |= self->heads[__builtin_ctzll(rest)];
    return PyLong_FromUnsignedLongLong(grow(self, m[0], 0, start));
}

static PyObject *
Kernel_extend(Kernel *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t m[3];
    if (read_masks("extend", args, nargs, 3, m) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(grow(self, m[0], m[1], m[2]));
}

static int
Kernel_init(Kernel *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"tail_masks", "head_masks", "n_vertices", NULL};
    PyObject *tail_arg, *head_arg, *tails = NULL, *heads = NULL;
    Py_ssize_t n_edges;
    int n_vertices, counts[64] = {0}, result = -1;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOi", kwlist,
                                     &tail_arg, &head_arg, &n_vertices))
        return -1;
    tails = PySequence_Fast(tail_arg, "tail_masks must be a sequence");
    if (tails == NULL)
        goto done;
    heads = PySequence_Fast(head_arg, "head_masks must be a sequence");
    if (heads == NULL)
        goto done;
    n_edges = PySequence_Fast_GET_SIZE(tails);
    if (n_edges != PySequence_Fast_GET_SIZE(heads)) {
        PyErr_SetString(PyExc_ValueError, "tail/head lists differ in length");
        goto done;
    }
    if (n_edges > 64 || n_vertices > 64) {
        PyErr_SetString(PyExc_ValueError, "compiled kernel handles at most 64 vertices/edges");
        goto done;
    }
    if (n_vertices < 0) {
        PyErr_SetString(PyExc_ValueError, "n_vertices must not be negative");
        goto done;
    }
    if (to_masks(PySequence_Fast_ITEMS(tails), n_edges, self->tails) < 0
        || to_masks(PySequence_Fast_ITEMS(heads), n_edges, self->heads) < 0)
        goto done;

    self->vertices = n_vertices == 64 ? ~(uint64_t)0 : ((uint64_t)1 << n_vertices) - 1;
    self->tailless = 0;
    for (int e = 0; e < n_edges; e++) {
        if (!self->tails[e])
            self->tailless |= (uint64_t)1 << e;
        for (uint64_t t = self->tails[e] & self->vertices; t; t &= t - 1)
            counts[__builtin_ctzll(t)]++;
    }
    self->adj_start[0] = 0;
    for (int v = 0; v < n_vertices; v++) {
        self->adj_start[v + 1] = self->adj_start[v] + counts[v];
        counts[v] = self->adj_start[v];
    }
    for (int e = 0; e < n_edges; e++)
        for (uint64_t t = self->tails[e] & self->vertices; t; t &= t - 1)
            self->adj_edges[counts[__builtin_ctzll(t)]++] = (unsigned char)e;
    result = 0;
done:
    Py_XDECREF(tails);
    Py_XDECREF(heads);
    return result;
}

static PyMethodDef Kernel_methods[] = {
    {"closure", (PyCFunction)(void (*)(void))Kernel_closure, METH_FASTCALL,
     "closure(edge_mask, start): the closure of start under the edges of edge_mask."},
    {"extend", (PyCFunction)(void (*)(void))Kernel_extend, METH_FASTCALL,
     "extend(edge_mask, closed, new): closure(edge_mask, closed | new) for closed\n"
     "already closed under edge_mask."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "budgetfd._closure_c.ClosureKernel",
    .tp_doc = "ClosureKernel(tail_masks, head_masks, n_vertices): closures over at most\n"
              "64 vertices and 64 edges.",
    .tp_basicsize = sizeof(Kernel),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Kernel_init,
    .tp_methods = Kernel_methods,
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "budgetfd._closure_c",
    .m_doc = "Compiled closure kernel; see budgetfd._closure_py for its twin.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__closure_c(void)
{
    if (PyType_Ready(&KernelType) < 0
        || PyDict_SetItemString(KernelType.tp_dict, "is_compiled", Py_True) < 0)
        return NULL;
    PyType_Modified(&KernelType);
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddType(m, &KernelType) < 0)
        Py_CLEAR(m);
    return m;
}
