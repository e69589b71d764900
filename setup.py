from setuptools import Extension, setup

# The compiled closure kernel is one hand-written C file; building it needs
# only a C compiler.  Without one, the pure-Python kernel runs instead.
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
