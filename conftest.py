"""Test-session setup, loaded by pytest before any test module imports numpy.

OpenBLAS picks a compute kernel for the CPU it runs on, and kernels round
some products differently (one fuses a multiply and an add where another
rounds twice). The MODWT's filter products go through BLAS, so the golden
reports in ``tests/golden`` hold only under the kernel they were made with.
The session pins that kernel unless the environment already names one.
"""

import os

os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")
