/* Compiled hot path of the interned backend.
 *
 * A hand-written CPython extension holding only what must run fast: the
 * Handle type and a base Manager type with node, neg, apply_binop, reset,
 * the leaves and the counters.  Every other manager method is written once,
 * in Python, in bddhc._pykernel.ManagerBase, which reads the read-only
 * _unique and _memos members defined here; bddhc.interned
 * combines the two into the compiled kernel's manager class.  Given the
 * same call sequence, this kernel and the Python one assign identical uids,
 * raise the same exceptions with the same messages, and report identical
 * statistics.  The unique table and the memo tables are dicts, keyed by
 * (var, low uid, high uid) for the unique table, uid for negation and
 * (uid, uid) for and/or/xor: the keys the Python kernel's memo_entries()
 * views show, decoded from the ints its engine packs the pairs into.
 *
 * Handle is not a GC type.  A handle refers only to its two children, which
 * are older and immutable, so handles never form a cycle and the cyclic
 * collector has nothing to find among them.  The Manager is collectable: a
 * caller may store anything in the live tables that memo_entries() returns.
 *
 * Build: python setup.py build_ext --inplace
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include "structmember.h"

/* core.MAX_VAR: a variable is kept in a C int. */
#define MAX_VAR INT_MAX

/* neg_rec and apply_rec recurse on the C stack, one level per variable of
 * the diagram.  With an 8 MiB stack (Python 3.11.7, gcc), neg of a chain
 * built with node() worked at 120 000 levels and crashed at 150 000, and
 * apply_binop("or") worked at 70 000 and crashed at 100 000.  Past this
 * depth both raise RecursionError, as the Python kernel does. */
#define MAX_DEPTH 30000

/* From bddhc.core and bddhc._pykernel, set at import. */
static PyObject *OrderViolation, *VarOutOfRange;
static PyObject *check_var, *check_owned_rule, *manager_ids;
/* Operation names, compared with == against apply_binop's argument. */
static PyObject *op_names[4];

/* ------------------------------------------------------------------ */
/* Handle */

typedef struct HandleObject {
    PyObject_HEAD
    PyObject *uid;                   /* an int, shared with every table key */
    struct HandleObject *low, *high; /* NULL on leaves */
    union {
        long long tag;               /* the owning manager's tag */
        struct HandleObject *next;   /* once dead: the free list link */
    };
    int var;                         /* 0 on leaves */
    int terminal;                    /* 1 true leaf, 0 false leaf, -1 node */
} HandleObject;

static PyTypeObject HandleType;

#define IS_HANDLE(o) Py_IS_TYPE((o), &HandleType)

static HandleObject *
handle_new(long long uid, int var, HandleObject *low, HandleObject *high,
           int terminal, long long tag)
{
    PyObject *uid_obj = PyLong_FromLongLong(uid);
    if (uid_obj == NULL)
        return NULL;
    HandleObject *h = PyObject_New(HandleObject, &HandleType);
    if (h == NULL) {
        Py_DECREF(uid_obj);
        return NULL;
    }
    h->uid = uid_obj;
    h->var = var;
    h->low = (HandleObject *)Py_XNewRef(low);
    h->high = (HandleObject *)Py_XNewRef(high);
    h->terminal = terminal;
    h->tag = tag;
    return h;
}

/* Freeing the root of a long chain frees every node below it.  A handle
 * that dies while another is being freed waits on this list instead of
 * recursing, so the C stack stays flat however deep the diagram is. */
static HandleObject *free_list = NULL;
static int freeing = 0;

static void
handle_dealloc(HandleObject *h)
{
    if (freeing) {
        h->next = free_list;
        free_list = h;
        return;
    }
    freeing = 1;
    while (h != NULL) {
        Py_DECREF(h->uid);
        Py_XDECREF(h->low);
        Py_XDECREF(h->high);
        PyObject_Free(h);
        h = free_list;
        if (h != NULL)
            free_list = h->next;
    }
    freeing = 0;
}

static PyObject *
handle_repr(HandleObject *h)
{
    if (h->terminal >= 0)
        return PyUnicode_FromFormat("<Handle %S: %s>", h->uid,
                                    h->terminal ? "T" : "F");
    return PyUnicode_FromFormat("<Handle %S: x%d -> %S/%S>", h->uid, h->var,
                                h->low->uid, h->high->uid);
}

static PyMemberDef handle_members[] = {
    {"uid", T_OBJECT, offsetof(HandleObject, uid), READONLY, NULL},
    {"var", T_INT, offsetof(HandleObject, var), READONLY, NULL},
    {"low", T_OBJECT, offsetof(HandleObject, low), READONLY, NULL},
    {"high", T_OBJECT, offsetof(HandleObject, high), READONLY, NULL},
    {"terminal", T_INT, offsetof(HandleObject, terminal), READONLY, NULL},
    {"tag", T_LONGLONG, offsetof(HandleObject, tag), READONLY, NULL},
    {NULL},
};

static PyTypeObject HandleType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "bddhc._speedups.Handle",
    .tp_doc = "Reference to one hash-consed node; compare via ``uid``.",
    .tp_basicsize = sizeof(HandleObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_DISALLOW_INSTANTIATION,
    .tp_dealloc = (destructor)handle_dealloc,
    .tp_repr = (reprfunc)handle_repr,
    .tp_members = handle_members,
};

/* ------------------------------------------------------------------ */
/* Manager */

enum { OP_NOT, OP_AND, OP_OR, OP_XOR, N_OPS };

typedef struct {
    PyObject *memo;
    long long hits, misses;
} Op;

typedef struct {
    PyObject_HEAD
    long long tag;
    long long next_uid;
    HandleObject *true_, *false_;
    PyObject *unique;
    PyObject *memos;                 /* operation name -> ops[i].memo */
    long long intern_hits, intern_misses;
    Op ops[N_OPS];
    int depth;                       /* of neg_rec and apply_rec */
} ManagerObject;

static PyTypeObject ManagerType;

/* The handle stored under ``key``: a new reference, or NULL with no error
 * set when the key is absent. */
static HandleObject *
table_get(PyObject *table, PyObject *key)
{
    PyObject *found = PyDict_GetItemWithError(table, key);
    if (found == NULL)
        return NULL;
    if (!IS_HANDLE(found)) {
        PyErr_Format(PyExc_TypeError, "table entry for %R is not a handle: %R",
                     key, found);
        return NULL;
    }
    return (HandleObject *)Py_NewRef(found);
}

/* The ownership rule is ManagerBase._check_owned.  Only its fast test is
 * written here: an exact Handle with this manager's tag.  Anything else
 * goes to the rule itself, which raises the error. */
static int
check_owned(ManagerObject *m, PyObject *h)
{
    if (IS_HANDLE(h) && ((HandleObject *)h)->tag == m->tag)
        return 0;
    PyObject *ok = PyObject_CallFunctionObjArgs(check_owned_rule, m, h, NULL);
    if (ok == NULL)
        return -1;
    Py_DECREF(ok);
    return 0;
}

/* Reducing, hash-consing constructor on checked arguments; borrows the
 * children and returns a new reference.  Within one manager, two handles
 * have the same uid exactly when they are the same object, so uids are
 * compared as pointers here and below. */
static HandleObject *
mk_node(ManagerObject *m, int var, HandleObject *low, HandleObject *high)
{
    if (low == high)
        return (HandleObject *)Py_NewRef(low);
    PyObject *var_obj = PyLong_FromLong(var);
    if (var_obj == NULL)
        return NULL;
    PyObject *key = PyTuple_Pack(3, var_obj, low->uid, high->uid);
    Py_DECREF(var_obj);
    if (key == NULL)
        return NULL;
    HandleObject *made = table_get(m->unique, key);
    if (made != NULL) {
        m->intern_hits++;
    }
    else if (!PyErr_Occurred()) {
        m->intern_misses++;
        made = handle_new(m->next_uid, var, low, high, -1, m->tag);
        if (made != NULL) {
            m->next_uid++;
            if (PyDict_SetItem(m->unique, key, (PyObject *)made) < 0)
                Py_CLEAR(made);
        }
    }
    Py_DECREF(key);
    return made;
}

/* ``op``'s memo entry for ``key``, counting the hit or the miss: a new
 * reference on a hit, NULL on a miss or with an error set. */
static HandleObject *
memo_get(Op *op, PyObject *key)
{
    HandleObject *found = table_get(op->memo, key);
    if (found != NULL)
        op->hits++;
    else if (!PyErr_Occurred())
        op->misses++;
    return found;
}

/* Before recursing below a miss: one level deeper, or RecursionError. */
static int
enter_level(ManagerObject *m)
{
    if (m->depth < MAX_DEPTH) {
        m->depth++;
        return 0;
    }
    PyErr_SetString(PyExc_RecursionError,
                    "maximum recursion depth exceeded in the compiled kernel");
    return -1;
}

/* After a miss on ``key``: build the node from two results the caller
 * owns, leave the level enter_level entered, and remember the node in
 * ``op``'s memo table. */
static HandleObject *
memo_store(ManagerObject *m, Op *op, PyObject *key, int var,
           HandleObject *low, HandleObject *high)
{
    HandleObject *made = NULL;
    m->depth--;
    if (low != NULL && high != NULL)
        made = mk_node(m, var, low, high);
    Py_XDECREF(low);
    Py_XDECREF(high);
    if (made != NULL && PyDict_SetItem(op->memo, key, (PyObject *)made) < 0)
        Py_CLEAR(made);
    Py_DECREF(key);
    return made;
}

static HandleObject *
neg_rec(ManagerObject *m, HandleObject *a)
{
    if (a->terminal >= 0)
        return (HandleObject *)Py_NewRef(a->terminal ? m->false_ : m->true_);
    Op *op = &m->ops[OP_NOT];
    PyObject *key = Py_NewRef(a->uid);
    HandleObject *found = memo_get(op, key);
    if (found != NULL || PyErr_Occurred() || enter_level(m) < 0) {
        Py_DECREF(key);
        return found;
    }
    HandleObject *low = neg_rec(m, a->low);
    HandleObject *high = low ? neg_rec(m, a->high) : NULL;
    return memo_store(m, op, key, a->var, low, high);
}

/* and/or/xor by Shannon expansion, memoized on uid pairs. */
static HandleObject *
apply_rec(ManagerObject *m, int kind, HandleObject *a, HandleObject *b)
{
    if (a == b)
        return (HandleObject *)Py_NewRef(kind == OP_XOR ? m->false_ : a);
    int at = a->terminal, bt = b->terminal;
    if (at >= 0 || bt >= 0) {
        HandleObject *r;
        if (kind == OP_AND)
            r = at == 0 || bt == 0 ? m->false_ : at == 1 ? b : a;
        else if (kind == OP_OR)
            r = at == 1 || bt == 1 ? m->true_ : at == 0 ? b : a;
        /* xor: false is its identity; against true it is negation,
         * which the not-cache carries */
        else if (at == 0)
            r = b;
        else if (bt == 0)
            r = a;
        else
            return neg_rec(m, at == 1 ? b : a);
        return (HandleObject *)Py_NewRef(r);
    }
    Op *op = &m->ops[kind];
    PyObject *key = PyTuple_Pack(2, a->uid, b->uid);
    if (key == NULL)
        return NULL;
    HandleObject *found = memo_get(op, key);
    if (found != NULL || PyErr_Occurred() || enter_level(m) < 0) {
        Py_DECREF(key);
        return found;
    }
    int var = a->var < b->var ? a->var : b->var;
    HandleObject *a0 = a, *a1 = a, *b0 = b, *b1 = b;
    if (a->var == var) {
        a0 = a->low;
        a1 = a->high;
    }
    if (b->var == var) {
        b0 = b->low;
        b1 = b->high;
    }
    HandleObject *low = apply_rec(m, kind, a0, b0);
    HandleObject *high = low ? apply_rec(m, kind, a1, b1) : NULL;
    return memo_store(m, op, key, var, low, high);
}

/* A fresh tag, an empty pool with new leaves, and zeroed counters:
 * previously issued handles belong to no manager any more. */
static int
manager_clear(ManagerObject *m)
{
    PyObject *next = PyIter_Next(manager_ids);
    if (next == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError, "manager ids exhausted");
        return -1;
    }
    long long tag = PyLong_AsLongLong(next);
    Py_DECREF(next);
    if (tag == -1 && PyErr_Occurred())
        return -1;
    HandleObject *t = handle_new(1, 0, NULL, NULL, 1, tag);
    HandleObject *f = t ? handle_new(2, 0, NULL, NULL, 0, tag) : NULL;
    if (f == NULL) {
        Py_XDECREF(t);
        return -1;
    }
    m->tag = tag;
    PyDict_Clear(m->unique);
    m->intern_hits = m->intern_misses = 0;
    for (int i = 0; i < N_OPS; i++) {
        PyDict_Clear(m->ops[i].memo);
        m->ops[i].hits = m->ops[i].misses = 0;
    }
    Py_XSETREF(m->true_, t);
    Py_XSETREF(m->false_, f);
    m->next_uid = 3;
    return 0;
}

static PyObject *
manager_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, ":Manager", kwlist))
        return NULL;
    ManagerObject *m = (ManagerObject *)type->tp_alloc(type, 0);
    if (m == NULL)
        return NULL;
    if ((m->unique = PyDict_New()) == NULL)
        goto error;
    if ((m->memos = PyDict_New()) == NULL)
        goto error;
    for (int i = 0; i < N_OPS; i++)
        if ((m->ops[i].memo = PyDict_New()) == NULL
            || PyDict_SetItem(m->memos, op_names[i], m->ops[i].memo) < 0)
            goto error;
    if (manager_clear(m) < 0)
        goto error;
    return (PyObject *)m;
error:
    Py_DECREF(m);
    return NULL;
}

static int
manager_traverse(ManagerObject *m, visitproc visit, void *arg)
{
    Py_VISIT(m->unique);
    Py_VISIT(m->memos);
    for (int i = 0; i < N_OPS; i++)
        Py_VISIT(m->ops[i].memo);
    return 0;
}

static void
manager_dealloc(ManagerObject *m)
{
    PyObject_GC_UnTrack(m);
    Py_XDECREF(m->unique);
    Py_XDECREF(m->memos);
    for (int i = 0; i < N_OPS; i++)
        Py_XDECREF(m->ops[i].memo);
    Py_XDECREF(m->true_);
    Py_XDECREF(m->false_);
    Py_TYPE(m)->tp_free(m);
}

/* var, as node() accepts it: core.check_var's rule, then MAX_VAR. */
static int
node_var(PyObject *var, int *out)
{
    int overflow = 0;
    long long v = 0;
    if (PyLong_CheckExact(var))
        v = PyLong_AsLongLongAndOverflow(var, &overflow);
    if (v < 1 && overflow <= 0) {
        /* not a positive exact int: raises unless an int subclass >= 1 */
        PyObject *ok = PyObject_CallOneArg(check_var, var);
        if (ok == NULL)
            return -1;
        Py_DECREF(ok);
        v = PyLong_AsLongLongAndOverflow(var, &overflow);
        if (v == -1 && PyErr_Occurred())
            return -1;
    }
    if (overflow || v > MAX_VAR) {
        PyErr_Format(VarOutOfRange, "variable index must be at most %d, got %S",
                     MAX_VAR, var);
        return -1;
    }
    *out = (int)v;
    return 0;
}

static int
check_order(HandleObject *child, int var)
{
    if (child->terminal < 0 && child->var <= var) {
        PyErr_Format(OrderViolation, "child variable x%d is not below x%d",
                     child->var, var);
        return -1;
    }
    return 0;
}

/* The methods that take several arguments take them by position only. */
static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t n)
{
    if (nargs == n)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                 name, n, nargs);
    return -1;
}

PyDoc_STRVAR(node_doc, "Reducing, hash-consing constructor for a decision node.");

static PyObject *
manager_node(ManagerObject *m, PyObject *const *args, Py_ssize_t nargs)
{
    int var;
    if (check_nargs("node", nargs, 3) < 0)
        return NULL;
    if (node_var(args[0], &var) < 0 || check_owned(m, args[1]) < 0
        || check_owned(m, args[2]) < 0)
        return NULL;
    HandleObject *low = (HandleObject *)args[1], *high = (HandleObject *)args[2];
    if (check_order(low, var) < 0 || check_order(high, var) < 0)
        return NULL;
    return (PyObject *)mk_node(m, var, low, high);
}

PyDoc_STRVAR(neg_doc, "Pointwise complement, memoized per node.");

static PyObject *
manager_neg(ManagerObject *m, PyObject *a)
{
    if (check_owned(m, a) < 0)
        return NULL;
    return (PyObject *)neg_rec(m, (HandleObject *)a);
}

PyDoc_STRVAR(apply_binop_doc,
"Pointwise and/or/xor via Shannon expansion, memoized on uid pairs.");

static PyObject *
manager_apply_binop(ManagerObject *m, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("apply_binop", nargs, 3) < 0)
        return NULL;
    if (check_owned(m, args[1]) < 0 || check_owned(m, args[2]) < 0)
        return NULL;
    for (int kind = OP_AND; kind < N_OPS; kind++) {
        int same = PyObject_RichCompareBool(op_names[kind], args[0], Py_EQ);
        if (same < 0)
            return NULL;
        if (same)
            return (PyObject *)apply_rec(m, kind, (HandleObject *)args[1],
                                         (HandleObject *)args[2]);
    }
    PyErr_Format(PyExc_ValueError, "unknown operation %R", args[0]);
    return NULL;
}

PyDoc_STRVAR(reset_doc,
"Empty the pool and caches; previously issued handles are dead.");

static PyObject *
manager_reset(ManagerObject *m, PyObject *unused)
{
    if (manager_clear(m) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef manager_methods[] = {
    {"node", (PyCFunction)(void (*)(void))manager_node, METH_FASTCALL, node_doc},
    {"neg", (PyCFunction)manager_neg, METH_O, neg_doc},
    {"apply_binop", (PyCFunction)(void (*)(void))manager_apply_binop,
     METH_FASTCALL, apply_binop_doc},
    {"reset", (PyCFunction)manager_reset, METH_NOARGS, reset_doc},
    {NULL},
};

#define COUNTER(name, field) \
    {name, T_LONGLONG, offsetof(ManagerObject, field), READONLY, NULL}

static PyMemberDef manager_members[] = {
    {"true", T_OBJECT, offsetof(ManagerObject, true_), READONLY, NULL},
    {"false", T_OBJECT, offsetof(ManagerObject, false_), READONLY, NULL},
    {"_unique", T_OBJECT, offsetof(ManagerObject, unique), READONLY, NULL},
    {"_memos", T_OBJECT, offsetof(ManagerObject, memos), READONLY, NULL},
    COUNTER("intern_hits", intern_hits),
    COUNTER("intern_misses", intern_misses),
    COUNTER("not_hits", ops[OP_NOT].hits),
    COUNTER("not_misses", ops[OP_NOT].misses),
    COUNTER("and_hits", ops[OP_AND].hits),
    COUNTER("and_misses", ops[OP_AND].misses),
    COUNTER("or_hits", ops[OP_OR].hits),
    COUNTER("or_misses", ops[OP_OR].misses),
    COUNTER("xor_hits", ops[OP_XOR].hits),
    COUNTER("xor_misses", ops[OP_XOR].misses),
    {NULL},
};

static PyTypeObject ManagerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "bddhc._speedups.Manager",
    .tp_doc = "Hot path of the compiled kernel's manager; the rest of its "
              "API comes from ``bddhc._pykernel.ManagerBase``.",
    .tp_basicsize = sizeof(ManagerObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_new = manager_new,
    .tp_dealloc = (destructor)manager_dealloc,
    .tp_traverse = (traverseproc)manager_traverse,
    .tp_methods = manager_methods,
    .tp_members = manager_members,
};

/* ------------------------------------------------------------------ */
/* Module */

static PyObject *
import_from(const char *module, const char *name)
{
    PyObject *mod = PyImport_ImportModule(module);
    if (mod == NULL)
        return NULL;
    PyObject *value = PyObject_GetAttrString(mod, name);
    Py_DECREF(mod);
    return value;
}

static struct PyModuleDef speedups_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "bddhc._speedups",
    .m_doc = "Compiled hot path of the interned backend's kernel; see "
             "bddhc._pykernel.ManagerBase for the rest of its API.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    static const char *names[N_OPS] = {"not", "and", "or", "xor"};
    for (int i = 0; i < N_OPS; i++)
        if ((op_names[i] = PyUnicode_InternFromString(names[i])) == NULL)
            return NULL;
    if ((OrderViolation = import_from("bddhc.core", "OrderViolation")) == NULL
        || (VarOutOfRange = import_from("bddhc.core", "VarOutOfRange")) == NULL
        || (check_var = import_from("bddhc.core", "check_var")) == NULL
        || (manager_ids = import_from("bddhc._pykernel", "_manager_ids")) == NULL)
        return NULL;
    PyObject *base = import_from("bddhc._pykernel", "ManagerBase");
    if (base == NULL)
        return NULL;
    check_owned_rule = PyObject_GetAttrString(base, "_check_owned");
    Py_DECREF(base);
    if (check_owned_rule == NULL)
        return NULL;
    if (PyType_Ready(&HandleType) < 0 || PyType_Ready(&ManagerType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&speedups_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddObjectRef(module, "Handle", (PyObject *)&HandleType) < 0
        || PyModule_AddObjectRef(module, "Manager", (PyObject *)&ManagerType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
