"""Exact toolkit for quantum Schubert cell algebras at small rank.

Everything is computed over the field of rational functions in q with
rational coefficients: root systems and Bruhat order, left positive subwords,
PBW straightening for the cell algebras, highest weight modules with braid
operators, quantum minors through the graded pairing map, the
deleting-derivations chain, and bounded-degree torus-invariant ideals.
"""

from .qscalar import Scalar, qpow, q_integer, q_factorial, cauchon_factorial, parse_scalar
from .weyl import RootDatum, WeylElement, ReducedWord, root_datum
from .subwords import (successor_table, is_left_positive, enumerate_lp,
                       lp_index_set, combinatorial_poset)
from .pbw import Presentation, EngineError, NotExpressibleError
from .modules import WeightModule, build_module, weight_multiplicities
from .schubert import SchubertCell, schubert_cell
from .cauchon import DeletingDerivations, verify_main1b
from .ideals import IdealLab

__version__ = "0.1.0"
