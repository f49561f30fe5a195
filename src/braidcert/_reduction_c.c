/* Compiled handle-reduction kernel; exact twin of _reduction_py.

   Same rewrite rule in the same closed form (the module docstring of
   _reduction_py states it and why it holds), same leftmost-closing-handle
   strategy, same early exit for sign queries, same buffer growth and the
   same budget messages, so the parity tests can compare the two letter
   for letter.  Unlike the pure module it checks its input before
   touching memory: every letter an int x with 0 < |x| < INT_MAX, else
   ValueError (TypeError or OverflowError for a non-int or one too big
   for a C long).  The last-occurrence table is sized by the largest
   generator in the word, as a rewrite only brings in generators already
   present; BraidWord's strand cap bounds it.  Built by setup.py with a
   plain C compiler and the CPython headers. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

#define FAILED (-2)

static PyObject *budget_exceeded;  /* braidcert.errors.ReductionBudgetExceeded */

static inline int
gen(int x)
{
    return x > 0 ? x : -x;
}

/* Resize *buf to size ints; on failure keep it and set MemoryError. */
static int
grow(int **buf, Py_ssize_t size)
{
    int *grown = PyMem_Realloc(*buf, (size_t)size * sizeof(int));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *buf = grown;
    return 0;
}

/* The same for a table of positions. */
static int
grow_positions(Py_ssize_t **buf, Py_ssize_t size)
{
    Py_ssize_t *grown = PyMem_Realloc(*buf, (size_t)size * sizeof(Py_ssize_t));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *buf = grown;
    return 0;
}

/* Append z to buf[:*n], freely cancelling it against a last letter -z. */
static inline void
push(int *buf, Py_ssize_t *n, int z)
{
    if (*n && buf[*n - 1] == -z)
        --*n;
    else
        buf[(*n)++] = z;
}

/* The lowest generator in w[:n] (0 for the empty word), with the
   numbers of its positive and of its negative letters. */
static int
lowest(const int *w, Py_ssize_t n, Py_ssize_t *pos, Py_ssize_t *neg)
{
    int low = 0;
    *pos = *neg = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        int g = gen(w[i]);
        if (low == 0 || g < low) {
            low = g;
            *pos = *neg = 0;
        }
        if (g == low)
            ++*(w[i] > 0 ? pos : neg);
    }
    return low;
}

/* Handle-reduce the call's letters into *wp (length *np, owned by the
   caller).  Returns the sign, or FAILED with an exception set.  With
   full == 0 it stops as soon as the word is sigma-definite. */
static int
reduce_core(PyObject *args, PyObject *kwds, int full, int **wp, Py_ssize_t *np)
{
    static char *kwlist[] = {"letters", "max_len", NULL};
    PyObject *letters, *seq;
    int top = 1, low, sign = FAILED;
    Py_ssize_t max_len, n0, n = 0, cap, seg_cap = 64, seg_n, i, s, q;
    int *w = NULL, *seg = NULL;
    Py_ssize_t *last = NULL, *prev = NULL, pos, neg;

    *wp = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "On", kwlist,
                                     &letters, &max_len))
        return FAILED;
    seq = PySequence_Fast(letters, "letters must be iterable");
    if (seq == NULL)
        return FAILED;
    n0 = PySequence_Fast_GET_SIZE(seq);
    cap = n0 + 16;
    if (grow(&w, cap) < 0)
        goto fail;

    /* Check each letter, then free-reduce it into the working buffer.
       Only int objects are read, which runs no Python code, so the
       sequence cannot change under this loop. */
    for (Py_ssize_t k = 0; k < n0; k++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, k);
        if (!PyLong_Check(item)) {
            PyErr_Format(PyExc_TypeError, "letters must be ints, got %.100s",
                         Py_TYPE(item)->tp_name);
            goto fail;
        }
        long v = PyLong_AsLong(item);
        if (v == -1 && PyErr_Occurred())
            goto fail;
        if (v == 0 || v >= INT_MAX || v <= -INT_MAX) {  /* gen(x) + 1 fits */
            PyErr_Format(PyExc_ValueError, "letter %ld out of range", v);
            goto fail;
        }
        int x = (int)v;
        if (gen(x) >= top)
            top = gen(x) + 1;
        push(w, &n, x);
    }
    if (n > max_len) {
        PyErr_Format(budget_exceeded, "word of length %zd exceeds budget %zd",
                     n, max_len);
        goto fail;
    }

    /* The sign is (pos > 0) - (neg > 0) once pos or neg is 0. */
    low = lowest(w, n, &pos, &neg);
    if (!full && !(pos && neg)) {
        sign = (pos > 0) - (neg > 0);
        goto done;
    }

    /* last[j] is the last occurrence of generator j in w[:i], and
       prev[p] the one before position p, for p < i. */
    if (grow(&seg, seg_cap) < 0 || grow_positions(&prev, cap) < 0
        || grow_positions(&last, top) < 0)
        goto fail;
    for (int j = 0; j < top; j++)
        last[j] = -1;

    i = 0;
    while (i < n) {
        int x = w[i], g = gen(x);
        s = last[g];
        int is_handle = s >= 0 && w[s] == -x;
        for (int j = 1; is_handle && j < g; j++)
            if (last[j] > s)
                is_handle = 0;
        if (!is_handle) {
            prev[i] = s;
            last[g] = i++;
            continue;
        }

        /* Rewrite handle w[s..i] in closed form: the interior's letters
           y of index g+1 share one sign, and a run of k of them becomes
           -up, k letters g of y's sign, up, where up is g+1 with the
           opening letter's sign.  The patch holds the interior plus 2
           letters per run, at most 3 times the interior. */
        int up = w[s] > 0 ? g + 1 : -(g + 1);
        if (3 * (i - s) + 4 > seg_cap) {
            seg_cap = 3 * (i - s) + 64;
            if (grow(&seg, seg_cap) < 0)
                goto fail;
        }
        seg_n = 0;
        for (q = s + 1; q < i; q++) {
            int y = w[q];
            if (gen(y) != g + 1) {
                seg[seg_n++] = y;
                continue;
            }
            if (w[q - 1] != y)
                seg[seg_n++] = -up;
            seg[seg_n++] = y > 0 ? g : -g;
            if (w[q + 1] != y)
                seg[seg_n++] = up;
        }

        Py_ssize_t new_n = n - (i - s + 1) + seg_n;
        if (new_n > cap) {
            cap = new_n + new_n / 2 + 16;
            if (grow(&w, cap) < 0 || grow_positions(&prev, cap) < 0)
                goto fail;
        }
        memmove(w + s + seg_n, w + i + 1, (n - (i + 1)) * sizeof(int));
        memcpy(w + s, seg, seg_n * sizeof(int));
        n = new_n;
        if (n > max_len) {
            PyErr_Format(budget_exceeded,
                         "word grew past budget %zd during handle reduction",
                         max_len);
            goto fail;
        }
        /* Only a handle of the lowest generator changes its counts: it
           takes one letter of each sign and brings in the patch's. */
        if (g == low) {
            pos--;
            neg--;
            for (q = 0; q < seg_n; q++) {
                pos += seg[q] == low;
                neg += seg[q] == -low;
            }
            if (!(pos || neg))
                low = lowest(w, n, &pos, &neg);
            if (!full && !(pos && neg)) {
                sign = (pos > 0) - (neg > 0);
                goto done;
            }
        }

        /* Resume at s.  No generator below g occurs in w[s..i], so only
           last[g:] can point into it; step those back along prev. */
        for (int j = g; j < top; j++) {
            while (last[j] >= s)
                last[j] = prev[last[j]];
        }
        i = s;
    }
    sign = (pos > 0) - (neg > 0);
    goto done;

fail:
    sign = FAILED;
done:
    Py_DECREF(seq);
    PyMem_Free(seg);
    PyMem_Free(last);
    PyMem_Free(prev);
    if (sign == FAILED) {
        PyMem_Free(w);
        return FAILED;
    }
    *wp = w;
    *np = n;
    return sign;
}

static PyObject *
reduce_word(PyObject *self, PyObject *args, PyObject *kwds)
{
    int *w;
    Py_ssize_t n;
    (void)self;
    if (reduce_core(args, kwds, 1, &w, &n) == FAILED)
        return NULL;
    PyObject *out = PyList_New(n);
    for (Py_ssize_t i = 0; out != NULL && i < n; i++) {
        PyObject *letter = PyLong_FromLong(w[i]);
        if (letter == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, letter);
    }
    PyMem_Free(w);
    return out;
}

static PyObject *
sign_of(PyObject *self, PyObject *args, PyObject *kwds)
{
    int *w;
    Py_ssize_t n;
    (void)self;
    int sign = reduce_core(args, kwds, 0, &w, &n);
    if (sign == FAILED)
        return NULL;
    PyMem_Free(w);
    return PyLong_FromLong(sign);
}

static PyMethodDef methods[] = {
    {"reduce_word", (PyCFunction)(void (*)(void))reduce_word,
     METH_VARARGS | METH_KEYWORDS,
     "reduce_word(letters, max_len)\n--\n\n"
     "Fully handle-reduced word equal to the input in the braid group."},
    {"sign_of", (PyCFunction)(void (*)(void))sign_of,
     METH_VARARGS | METH_KEYWORDS,
     "sign_of(letters, max_len)\n--\n\n"
     "Dehornoy sign of the word: +1, 0 or -1."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "braidcert._reduction_c",
    "Compiled handle-reduction kernel; exact twin of _reduction_py.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__reduction_c(void)
{
    PyObject *errors = PyImport_ImportModule("braidcert.errors");
    if (errors == NULL)
        return NULL;
    Py_XSETREF(budget_exceeded,
               PyObject_GetAttrString(errors, "ReductionBudgetExceeded"));
    Py_DECREF(errors);
    if (budget_exceeded == NULL)
        return NULL;
    return PyModule_Create(&module);
}
