"""Import citefit before any test module loads NumPy, so the in-process
suite runs with the one-thread BLAS that the CLI gets (see the ``citefit``
package docstring). pytest and its plugins load no NumPy before this file
runs. A subprocess test still builds its child's environment itself.
"""

import citefit  # noqa: F401
