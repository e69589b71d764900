from setuptools import Extension, setup

# The committed C file is generated from _closure_c.pyx by Cython; building it
# needs only a C compiler.  The pure-Python kernel is the fallback.
setup(
    ext_modules=[
        Extension(
            "budgetfd._closure_c",
            ["src/budgetfd/_closure_c.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
