"""abelmax: maximal abelian subgroup orders of finite permutation groups.

The package has six parts:

* ``numtheory`` - exact prime-power products and log-space bound arithmetic
* ``perms``     - permutations, stabilizer chains, subgroup machinery
* ``catalog``   - constructors for the named group families and generator files
* ``search``    - the centralizer search for the maximal abelian order
* ``verify``    - the structured check suites and report serialization
* ``cli``       - the ``abelmax`` command-line front end
"""

from .errors import CapacityError, GeneratorFileError

__all__ = ["CapacityError", "GeneratorFileError"]
__version__ = "0.1.0"
