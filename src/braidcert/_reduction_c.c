/* Compiled handle-reduction kernel; exact twin of _reduction_py.

   Same rewrite rule, same leftmost-closing-handle strategy, same early
   exit for sign queries, same buffer growth and the same budget
   messages, so the parity tests can compare the two letter for letter.
   Unlike the pure module it checks its input before touching memory:
   strands >= 2 and every letter an int x with 0 < |x| < strands, else
   ValueError (TypeError or OverflowError for a non-int or one too big
   for a C long).  The generator tables are sized by the largest
   generator in the word, not by strands: a rewrite only brings in
   generators already present.  Built by setup.py with a plain C
   compiler and the CPython headers. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

#define MIXED 2  /* lowest generator occurs with both signs */
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

/* push, keeping cnt[x], the number of letters x in the word, in step. */
static inline void
push_counted(int *buf, Py_ssize_t *n, Py_ssize_t *cnt, int z)
{
    if (*n && buf[*n - 1] == -z) {
        --*n;
        cnt[-z]--;
    } else {
        buf[(*n)++] = z;
        cnt[z]++;
    }
}

/* Sign decided by the lowest generator present; MIXED if undecided. */
static int
definite_sign(const Py_ssize_t *cnt, int top)
{
    for (int j = 1; j < top; j++) {
        if (cnt[j] || cnt[-j])
            return cnt[-j] == 0 ? 1 : cnt[j] == 0 ? -1 : MIXED;
    }
    return 0;
}

/* Handle-reduce the call's letters into *wp (length *np, owned by the
   caller).  Returns the sign, or FAILED with an exception set.  With
   full == 0 it stops as soon as the word is sigma-definite. */
static int
reduce_core(PyObject *args, PyObject *kwds, int full, int **wp, Py_ssize_t *np)
{
    static char *kwlist[] = {"letters", "strands", "max_len", NULL};
    PyObject *letters, *seq;
    int strands, top = 1, sign = FAILED;
    Py_ssize_t max_len, n0, n = 0, cap, seg_cap = 64, seg_n, i, s, q;
    int *w = NULL, *seg = NULL;
    Py_ssize_t *tables = NULL, *cnt, *last, *prev = NULL;

    *wp = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "Oin", kwlist,
                                     &letters, &strands, &max_len))
        return FAILED;
    if (strands < 2) {
        PyErr_Format(PyExc_ValueError, "strands must be >= 2, got %d", strands);
        return FAILED;
    }
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
        if (v == 0 || v >= strands || v <= -strands) {
            PyErr_Format(PyExc_ValueError,
                         "letter %ld out of range for %d strands", v, strands);
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

    /* cnt[x] counts the letter x, for -top < x < top; last[j] is the
       last occurrence of generator j in w[:i], and prev[p] the one
       before position p, for p < i. */
    if ((tables = PyMem_Calloc(3 * (size_t)top, sizeof(Py_ssize_t))) == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    if (grow(&seg, seg_cap) < 0 || grow_positions(&prev, cap) < 0)
        goto fail;
    cnt = tables + top;
    last = tables + 2 * top;
    for (int j = 0; j < top; j++)
        last[j] = -1;
    for (i = 0; i < n; i++)
        cnt[w[i]]++;
    if (!full && (sign = definite_sign(cnt, top)) != MIXED)
        goto done;

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

        /* Rewrite handle w[s..i]; free-cancel while building the patch,
           counting every letter that leaves or enters the word.  Worst
           case the interior triples in length. */
        int e = w[s] > 0 ? 1 : -1, g1 = g + 1;
        if (3 * (i - s) + 4 > seg_cap) {
            seg_cap = 3 * (i - s) + 64;
            if (grow(&seg, seg_cap) < 0)
                goto fail;
        }
        cnt[x]--;
        cnt[-x]--;
        seg_n = 0;
        for (q = s + 1; q < i; q++) {
            int y = w[q];
            cnt[y]--;
            if (gen(y) == g1) {
                push_counted(seg, &seg_n, cnt, -e * g1);
                push_counted(seg, &seg_n, cnt, (y > 0 ? 1 : -1) * g);
                push_counted(seg, &seg_n, cnt, e * g1);
            } else {
                push_counted(seg, &seg_n, cnt, y);
            }
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
        if (!full && (sign = definite_sign(cnt, top)) != MIXED)
            goto done;

        /* Resume at s.  No generator below g occurs in w[s..i], so only
           last[g:] can point into it; step those back along prev. */
        for (int j = g; j < top; j++) {
            while (last[j] >= s)
                last[j] = prev[last[j]];
        }
        i = s;
    }
    sign = definite_sign(cnt, top);
    goto done;

fail:
    sign = FAILED;
done:
    Py_DECREF(seq);
    PyMem_Free(seg);
    PyMem_Free(tables);
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
     "reduce_word(letters, strands, max_len)\n--\n\n"
     "Fully handle-reduced word equal to the input in the braid group."},
    {"sign_of", (PyCFunction)(void (*)(void))sign_of,
     METH_VARARGS | METH_KEYWORDS,
     "sign_of(letters, strands, max_len)\n--\n\n"
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
