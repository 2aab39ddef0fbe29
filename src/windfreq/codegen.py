"""Functions compiled from the source templates of the physical laws.

``turbine`` and ``aapc`` write each law once, as Python source with named
``str.format`` slots. ``law_function`` compiles a law with parameter names
in its slots into the module's callable; the closed-loop kernel
(``simulator._kernel_source``) writes the same source with float literals
in the slots, so each law has one text. A law calls no name but those of
``LAW_NAMES``.
"""

import linecache
import math
import textwrap

__all__ = ["LAW_NAMES", "law_function"]

LAW_NAMES = {"exp": math.exp}


def law_function(module: str, name: str, params, result: str, body: str = "", doc=None):
    """The function ``name(*params)`` of ``module`` that runs the statements
    ``body`` and returns the expression ``result``.

    Its source is registered in ``linecache`` under ``<module.name>``, so
    tracebacks and ``inspect.getsource`` show it.
    """
    src = f"def {name}({', '.join(params)}):\n{textwrap.indent(body, '    ')}    return {result}\n"
    filename = f"<{module}.{name}>"
    namespace = {"__name__": module, **LAW_NAMES}
    exec(compile(src, filename, "exec"), namespace)
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    fn = namespace[name]
    fn.__doc__ = doc
    return fn
