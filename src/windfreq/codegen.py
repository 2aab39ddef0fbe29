"""Functions compiled from generated source: the physical laws and the kernel.

``turbine`` and ``aapc`` write each law once, as Python source with named
``str.format`` slots. ``law_function`` compiles a law with parameter names
in its slots into the module's callable; the closed-loop kernel
(``simulator._kernel_source``) writes the same source with float literals
in the slots, so each law has one text. A law calls no name but those of
``LAW_NAMES``. ``compile_functions`` is the one path by which generated
source becomes code: the law functions and the kernel both go through it.
"""

import linecache
import math
import textwrap
import weakref

__all__ = ["LAW_NAMES", "compile_functions", "law_function"]

LAW_NAMES = {"exp": math.exp}


def compile_functions(module: str, filename: str, sources: dict) -> tuple:
    """The functions that ``sources`` (name -> source of its ``def``) define,
    in their order, compiled into one namespace of ``module`` that holds
    ``LAW_NAMES`` and none of the functions.

    Each source is compiled on its own, after blank lines that keep its line
    numbers in the file of all the sources joined. That file is registered in
    ``linecache`` under ``filename`` while the first function lives, so
    tracebacks and ``inspect.getsource`` show the generated lines.
    """
    namespace = {"__name__": module, **LAW_NAMES}
    lines = 0
    for src in sources.values():
        exec(compile("\n" * lines + src, filename, "exec"), namespace)
        lines += src.count("\n")
    functions = tuple(namespace.pop(name) for name in sources)
    text = "".join(sources.values())
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    weakref.finalize(functions[0], linecache.cache.pop, filename, None)
    return functions


def law_function(module: str, name: str, params, result: str, body: str = "", doc=None):
    """The function ``name(*params)`` of ``module`` that runs the statements
    ``body`` and returns the expression ``result``; its file is
    ``<module.name>``."""
    src = f"def {name}({', '.join(params)}):\n{textwrap.indent(body, '    ')}    return {result}\n"
    fn, = compile_functions(module, f"<{module}.{name}>", {name: src})
    fn.__doc__ = doc
    return fn
