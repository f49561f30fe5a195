"""Build script: compiles the optional handle-reduction extension.

The package is pure Python except for one hot kernel,
``braidcert._reduction_c``, a hand-written C file that needs only a C
compiler and the CPython headers.  The extension is optional: if it
does not compile, setuptools prints a warning and the build goes on,
and the installed package then runs the pure-Python kernel, selected
at import time whenever the extension is not importable.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "braidcert._reduction_c",
            ["src/braidcert/_reduction_c.c"],
            optional=True,
        )
    ]
)
